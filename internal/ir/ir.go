// Package ir defines a compact micro-op instruction stream for workload
// programs, plus the builder that emits it and the interpreter that executes
// it. It exists for one reason: raw simulator speed.
//
// The original program interface (cpu.Env) runs each workload thread as a
// coroutine of its core and switches to it and back once per simulated
// memory access (Load/Store/Flush/Fence/CAS). That handoff is the largest
// remaining cost of the Env path. A compiled program expresses the same
// thread body as a flat stream of register-machine micro-ops; the core then
// drives the interpreter *inline from the event kernel*: one callback per
// machine action, no coroutine switch.
//
// The op set has two layers:
//
//   - Machine ops (Load, Store, Flush, Fence, Barrier, Compute, CAS, Halt)
//     yield an Action to the core and advance simulated time, exactly one
//     Env call each.
//   - Inline ops (constants, register ALU, branches, PRNG draws, barrier
//     address accumulation) execute host-side between yields and cost zero
//     simulated cycles — mirroring the host-side Go control flow of the
//     cpu.Env twins.
//
// Equivalence with the Env twins is the package's contract: for the same
// seed, a compiled program must perform the identical sequence of machine
// actions its cpu.Env twin performs, so both paths produce byte-identical
// system.Results. The scheme-dependent expansion of persist barriers
// (epoch mark / clwb-per-line + sfence / nothing) is done by the
// interpreter at run time from the same core configuration bits cpu.env
// consults, so one compiled program serves every scheme.
package ir

import "fmt"

// Reg names one of the interpreter's general-purpose 64-bit registers.
type Reg uint8

// NumRegs is the register file size; rtree (the widest workload) uses ~30.
const NumRegs = 48

// MaxBarrierAddrs bounds the address list one Barrier can cover (rtree's
// split barrier names 6 lines; env.PersistBarrier has no limit, but every
// workload call site is statically bounded).
const MaxBarrierAddrs = 8

// OpCode selects a micro-op.
type OpCode uint8

// Machine ops (yield an Action) and inline ops (host-side only).
const (
	opInvalid OpCode = iota

	// --- machine ops: each yields exactly one Action ---

	// OpHalt ends the program (Env twin returning).
	OpHalt
	// OpLoad reads size-C bytes at reg[B]+Imm into reg[A].
	OpLoad
	// OpStore writes size-C bytes of reg[A] at reg[B]+Imm.
	OpStore
	// OpFlush writes back the line of reg[B]+Imm (Env.Flush): a clwb under
	// ExplicitPersist, skipped entirely otherwise.
	OpFlush
	// OpFence orders earlier flushes (Env.Fence): an sfence under
	// ExplicitPersist, an epoch mark under EpochMode, skipped otherwise.
	OpFence
	// OpBarrier issues Env.PersistBarrier over the addresses accumulated by
	// OpBarrierAddr since the last OpBarrier: one epoch mark under
	// EpochMode, clwb-per-address + sfence under ExplicitPersist, nothing
	// under the battery schemes. Always clears the accumulator.
	OpBarrier
	// OpCompute burns Imm core cycles (Imm > 0; the builder drops zeros,
	// mirroring Env.Compute's early return).
	OpCompute
	// OpCAS compare-and-swaps size-C bytes at reg[B]+Imm: expected old in
	// reg[C], new value in reg[A]; the previous memory value replaces
	// reg[A] (compare it to the old operand to learn whether the swap hit).
	OpCAS

	// --- inline ops: zero simulated cost ---

	// OpBarrierAddr appends reg[B]+Imm to the barrier address accumulator.
	OpBarrierAddr
	// OpConst sets reg[A] = Imm.
	OpConst
	// OpMov sets reg[A] = reg[B].
	OpMov
	// OpAdd sets reg[A] = reg[B] + reg[C] (wrapping).
	OpAdd
	// OpAddImm sets reg[A] = reg[B] + Imm (wrapping; subtraction is
	// addition of the two's complement).
	OpAddImm
	// OpSub sets reg[A] = reg[B] - reg[C] (wrapping).
	OpSub
	// OpMul sets reg[A] = reg[B] * reg[C] (wrapping).
	OpMul
	// OpMulImm sets reg[A] = reg[B] * Imm (wrapping).
	OpMulImm
	// OpXor sets reg[A] = reg[B] ^ reg[C].
	OpXor
	// OpXorImm sets reg[A] = reg[B] ^ Imm.
	OpXorImm
	// OpAnd sets reg[A] = reg[B] & reg[C].
	OpAnd
	// OpAndImm sets reg[A] = reg[B] & Imm.
	OpAndImm
	// OpOr sets reg[A] = reg[B] | reg[C].
	OpOr
	// OpOrImm sets reg[A] = reg[B] | Imm.
	OpOrImm
	// OpShl sets reg[A] = reg[B] << reg[C] (0 when the shift count is >= 64,
	// matching Go's uint64 shift semantics).
	OpShl
	// OpShlImm sets reg[A] = reg[B] << Imm.
	OpShlImm
	// OpShr sets reg[A] = reg[B] >> reg[C] (logical; 0 when >= 64).
	OpShr
	// OpShrImm sets reg[A] = reg[B] >> Imm.
	OpShrImm
	// OpMinU sets reg[A] = min(reg[B], reg[C]) unsigned — with OpMaxU the
	// compare-exchange cell of sorting networks.
	OpMinU
	// OpMaxU sets reg[A] = max(reg[B], reg[C]) unsigned.
	OpMaxU
	// OpJmp jumps to pc Imm.
	OpJmp
	// OpBeq jumps to Imm when reg[A] == reg[B].
	OpBeq
	// OpBne jumps to Imm when reg[A] != reg[B].
	OpBne
	// OpBltU jumps to Imm when reg[A] < reg[B] (unsigned).
	OpBltU
	// OpBgeU jumps to Imm when reg[A] >= reg[B] (unsigned).
	OpBgeU
	// OpRand64 sets reg[A] = rng.Uint64().
	OpRand64
	// OpRandIntn sets reg[A] = uint64(rng.Intn(int(Imm))).
	OpRandIntn
	// OpRandInt63n sets reg[A] = uint64(rng.Int63n(int64(Imm))).
	OpRandInt63n

	nOpcodes
)

var opNames = [nOpcodes]string{
	opInvalid:     "invalid",
	OpHalt:        "halt",
	OpLoad:        "load",
	OpStore:       "store",
	OpFlush:       "flush",
	OpFence:       "fence",
	OpBarrier:     "barrier",
	OpCompute:     "compute",
	OpCAS:         "cas",
	OpBarrierAddr: "barrier.addr",
	OpConst:       "const",
	OpMov:         "mov",
	OpAdd:         "add",
	OpAddImm:      "addi",
	OpSub:         "sub",
	OpMul:         "mul",
	OpMulImm:      "muli",
	OpXor:         "xor",
	OpXorImm:      "xori",
	OpAnd:         "and",
	OpAndImm:      "andi",
	OpOr:          "or",
	OpOrImm:       "ori",
	OpShl:         "shl",
	OpShlImm:      "shli",
	OpShr:         "shr",
	OpShrImm:      "shri",
	OpMinU:        "minu",
	OpMaxU:        "maxu",
	OpJmp:         "jmp",
	OpBeq:         "beq",
	OpBne:         "bne",
	OpBltU:        "bltu",
	OpBgeU:        "bgeu",
	OpRand64:      "rand64",
	OpRandIntn:    "randintn",
	OpRandInt63n:  "randint63n",
}

// String names the opcode for disassembly and diagnostics.
func (c OpCode) String() string {
	if int(c) < len(opNames) && opNames[c] != "" {
		return opNames[c]
	}
	return fmt.Sprintf("op(%d)", int(c))
}

// Op is one 16-byte micro-op. Field roles depend on Code; see the opcode
// comments. Imm doubles as the address offset of memory ops and the target
// pc of branches.
type Op struct {
	Code    OpCode
	A, B, C Reg
	Imm     uint64
}

// String disassembles one op.
func (o Op) String() string {
	return fmt.Sprintf("%s r%d, r%d, r%d, %#x", o.Code, o.A, o.B, o.C, o.Imm)
}

// Prog is one thread's compiled program: a validated op stream plus the
// PRNG seed its random ops draw from (the workload's per-thread seed, so
// the draw stream matches the goroutine twin's rand.Rand exactly).
type Prog struct {
	Ops  []Op
	Seed int64
}

// Disasm renders the program, one op per line, for debugging.
func (p *Prog) Disasm() string {
	out := ""
	for i, op := range p.Ops {
		out += fmt.Sprintf("%4d: %s\n", i, op)
	}
	return out
}
