package ir

import (
	"fmt"
	"math/rand"

	"bbb/internal/engine"
	"bbb/internal/memory"
)

// Config carries the two core-configuration bits that decide how persist
// instructions expand — the same bits cpu.env consults, so the interpreter
// and the cpu.Env path make identical scheme-dependent decisions.
type Config struct {
	// ExplicitPersist: the PMEM programming model (clwb + sfence barriers).
	ExplicitPersist bool
	// EpochMode: buffered epoch persistency (one epoch mark per barrier).
	EpochMode bool
}

// ActionKind classifies a machine action yielded by the interpreter.
type ActionKind uint8

// The machine actions, mirroring cpu's request kinds one-to-one.
const (
	// ActionDone: the program finished.
	ActionDone ActionKind = iota
	// ActionLoad: read Size bytes at Addr; the loaded value arrives as the
	// next Next resume argument.
	ActionLoad
	// ActionStore: write Size bytes of Val at Addr.
	ActionStore
	// ActionFlush: clwb the line of Addr.
	ActionFlush
	// ActionFence: sfence (wait for outstanding clwbs).
	ActionFence
	// ActionEpoch: epoch boundary (buffered epoch persistency).
	ActionEpoch
	// ActionCompute: burn Cycles core cycles.
	ActionCompute
	// ActionCAS: compare-and-swap at Addr (Old expected, Val new); the
	// previous value arrives as the next resume argument.
	ActionCAS
)

// Action is one machine-facing operation; the core converts it to the same
// internal request the cpu.Env path yields from its coroutine.
type Action struct {
	Kind   ActionKind
	Addr   memory.Addr
	Size   int
	Val    uint64 // store value / CAS new value
	Old    uint64 // CAS expected value
	Cycles engine.Cycle
}

// Interp executes one compiled program, yielding machine actions one at a
// time. It is driven inline from the event kernel: the core calls Next with
// the previous action's result, the interpreter runs inline ops until the
// next machine op, fills act, and returns — no coroutine switch, no
// allocation.
type Interp struct {
	ops  []Op
	pc   int
	regs [NumRegs]uint64
	rng  *rand.Rand
	cfg  Config

	// barrier accumulator plus expansion state: under ExplicitPersist a
	// Barrier over n addresses expands to n flush yields and a fence yield,
	// resumed across calls.
	baddrs   [MaxBarrierAddrs]memory.Addr
	nb       int
	flushing bool
	flushIdx int

	// pending is the register awaiting the next resume value (-1 none).
	pending int16
	halted  bool
}

// Reset arms the interpreter for one run of p under cfg.
func (it *Interp) Reset(p *Prog, cfg Config) {
	it.ops = p.Ops
	it.pc = 0
	it.regs = [NumRegs]uint64{}
	it.rng = rand.New(rand.NewSource(p.Seed))
	it.cfg = cfg
	it.nb = 0
	it.flushing = false
	it.flushIdx = 0
	it.pending = -1
	it.halted = false
}

// Halted reports whether the program has executed its Halt.
func (it *Interp) Halted() bool { return it.halted }

// Next resumes execution with the previous action's result (ignored unless
// that action produced a value) and fills act with the next machine action.
// After act.Kind == ActionDone, Next must not be called again.
func (it *Interp) Next(resume uint64, act *Action) {
	if it.pending >= 0 {
		it.regs[it.pending] = resume
		it.pending = -1
	}
	if it.flushing {
		it.flushStep(act)
		return
	}
	for {
		op := &it.ops[it.pc]
		it.pc++
		switch op.Code {
		// --- inline ops ---
		case OpConst:
			it.regs[op.A] = op.Imm
		case OpMov:
			it.regs[op.A] = it.regs[op.B]
		case OpAdd:
			it.regs[op.A] = it.regs[op.B] + it.regs[op.C]
		case OpAddImm:
			it.regs[op.A] = it.regs[op.B] + op.Imm
		case OpSub:
			it.regs[op.A] = it.regs[op.B] - it.regs[op.C]
		case OpMul:
			it.regs[op.A] = it.regs[op.B] * it.regs[op.C]
		case OpMulImm:
			it.regs[op.A] = it.regs[op.B] * op.Imm
		case OpXor:
			it.regs[op.A] = it.regs[op.B] ^ it.regs[op.C]
		case OpXorImm:
			it.regs[op.A] = it.regs[op.B] ^ op.Imm
		case OpAnd:
			it.regs[op.A] = it.regs[op.B] & it.regs[op.C]
		case OpAndImm:
			it.regs[op.A] = it.regs[op.B] & op.Imm
		case OpOr:
			it.regs[op.A] = it.regs[op.B] | it.regs[op.C]
		case OpOrImm:
			it.regs[op.A] = it.regs[op.B] | op.Imm
		case OpShl:
			if s := it.regs[op.C]; s < 64 {
				it.regs[op.A] = it.regs[op.B] << s
			} else {
				it.regs[op.A] = 0
			}
		case OpShlImm:
			it.regs[op.A] = it.regs[op.B] << (op.Imm & 63)
		case OpShr:
			if s := it.regs[op.C]; s < 64 {
				it.regs[op.A] = it.regs[op.B] >> s
			} else {
				it.regs[op.A] = 0
			}
		case OpShrImm:
			it.regs[op.A] = it.regs[op.B] >> (op.Imm & 63)
		case OpMinU:
			x, y := it.regs[op.B], it.regs[op.C]
			if y < x {
				x = y
			}
			it.regs[op.A] = x
		case OpMaxU:
			x, y := it.regs[op.B], it.regs[op.C]
			if y > x {
				x = y
			}
			it.regs[op.A] = x
		case OpJmp:
			it.pc = int(op.Imm)
		case OpBeq:
			if it.regs[op.A] == it.regs[op.B] {
				it.pc = int(op.Imm)
			}
		case OpBne:
			if it.regs[op.A] != it.regs[op.B] {
				it.pc = int(op.Imm)
			}
		case OpBltU:
			if it.regs[op.A] < it.regs[op.B] {
				it.pc = int(op.Imm)
			}
		case OpBgeU:
			if it.regs[op.A] >= it.regs[op.B] {
				it.pc = int(op.Imm)
			}
		case OpRand64:
			it.regs[op.A] = it.rng.Uint64()
		case OpRandIntn:
			it.regs[op.A] = uint64(it.rng.Intn(int(op.Imm)))
		case OpRandInt63n:
			it.regs[op.A] = uint64(it.rng.Int63n(int64(op.Imm)))
		case OpBarrierAddr:
			it.baddrs[it.nb] = memory.Addr(it.regs[op.B] + op.Imm)
			it.nb++

		// --- machine ops ---
		case OpLoad:
			act.Kind = ActionLoad
			act.Addr = memory.Addr(it.regs[op.B] + op.Imm)
			act.Size = int(op.C)
			it.pending = int16(op.A)
			return
		case OpStore:
			act.Kind = ActionStore
			act.Addr = memory.Addr(it.regs[op.B] + op.Imm)
			act.Size = int(op.C)
			act.Val = it.regs[op.A]
			return
		case OpFlush:
			// Env.Flush: only the PMEM model issues anything.
			if it.cfg.ExplicitPersist {
				act.Kind = ActionFlush
				act.Addr = memory.Addr(it.regs[op.B] + op.Imm)
				return
			}
		case OpFence:
			// Env.Fence: epoch mark / sfence / nothing.
			if it.cfg.EpochMode {
				act.Kind = ActionEpoch
				return
			}
			if it.cfg.ExplicitPersist {
				act.Kind = ActionFence
				return
			}
		case OpBarrier:
			// Env.PersistBarrier over the accumulated addresses.
			if it.cfg.EpochMode {
				it.nb = 0
				act.Kind = ActionEpoch
				return
			}
			if !it.cfg.ExplicitPersist {
				it.nb = 0 // free under the battery schemes
				continue
			}
			it.flushing = true
			it.flushIdx = 0
			it.flushStep(act)
			return
		case OpCompute:
			act.Kind = ActionCompute
			act.Cycles = engine.Cycle(op.Imm)
			return
		case OpCAS:
			act.Kind = ActionCAS
			act.Addr = memory.Addr(it.regs[op.B] + op.Imm)
			act.Size = 8
			act.Old = it.regs[op.C]
			act.Val = it.regs[op.A]
			it.pending = int16(op.A)
			return
		case OpHalt:
			act.Kind = ActionDone
			it.halted = true
			return
		default:
			panic(fmt.Sprintf("ir: invalid opcode %s at pc %d", op.Code, it.pc-1))
		}
	}
}

// flushStep emits the next leg of an in-progress barrier expansion: one
// clwb per accumulated address, then the closing sfence — exactly
// env.PersistBarrier's loop under ExplicitPersist.
func (it *Interp) flushStep(act *Action) {
	if it.flushIdx < it.nb {
		act.Kind = ActionFlush
		act.Addr = it.baddrs[it.flushIdx]
		it.flushIdx++
		return
	}
	it.flushing = false
	it.nb = 0
	act.Kind = ActionFence
}
