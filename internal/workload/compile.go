package workload

import (
	"fmt"

	"bbb/internal/engine"
	"bbb/internal/ir"
	"bbb/internal/palloc"
	"bbb/internal/persistency"
	"bbb/internal/system"
)

// CompiledWorkload is a Workload that can also express its per-thread
// programs as ir.Prog streams the core interprets inline from the event
// kernel — no coroutine switch per access. A compiled program
// must be the exact twin of the corresponding Programs entry: same PRNG
// draw order, same loads, stores, barriers and compute in the same order,
// so both paths produce byte-identical system.Results (`make ir-equiv`).
//
// Setup must run before CompiledPrograms: compilation bakes in the heap
// bases Setup chose, and replays the deterministic arena bump sequence with
// a register (palloc rounds to whole lines and compiled workloads never
// Free, so the allocation addresses are a pure function of the op stream).
type CompiledWorkload interface {
	Workload
	// CompiledPrograms returns one compiled program per thread.
	CompiledPrograms(p Params) []system.CompiledProgram
}

// Compiled reports whether w supports the compiled path.
func Compiled(w Workload) (CompiledWorkload, bool) {
	cw, ok := w.(CompiledWorkload)
	return cw, ok
}

// BuildCompiled is Build over the compiled path: fresh machine, Setup, then
// compile one program per thread against the chosen heap layout.
func BuildCompiled(w CompiledWorkload, s persistency.Scheme, cfg system.Config, p Params) (*system.System, []system.CompiledProgram) {
	cfg.Scheme = s
	cfg.Cores = p.Threads
	cfg.Hierarchy.Cores = p.Threads
	sys := system.New(cfg)
	arena := palloc.FromLayout(cfg.Layout)
	w.Setup(sys.Mem, arena, p)
	return sys, w.CompiledPrograms(p)
}

// RunCompiled executes the workload to completion on the compiled path.
func RunCompiled(w CompiledWorkload, s persistency.Scheme, cfg system.Config, p Params) system.Result {
	sys, progs := BuildCompiled(w, s, cfg, p)
	defer sys.Shutdown()
	return sys.RunCompiled(progs)
}

// BuildToCrashCompiled is BuildToCrash over the compiled path: run until
// crashCycle (or completion) and return the stopped machine.
func BuildToCrashCompiled(w CompiledWorkload, s persistency.Scheme, cfg system.Config, p Params, crashCycle engine.Cycle) (*system.System, bool) {
	sys, progs := BuildCompiled(w, s, cfg, p)
	finished := sys.RunUntilCompiled(crashCycle, progs)
	return sys, finished
}

// --- emission helpers shared by every compiled workload ---

// Fixed high registers for the shared helpers; workload bodies allocate
// upward from 0 and must stay below regVWVal.
const (
	// regZero always holds zero (set by newEmitter), giving branches a
	// zero operand and absolute addresses a zero base.
	regZero ir.Reg = 47
	// regVWCnt/regVWOff/regVWVal are volatileWork's loop counter, offset
	// and value scratch.
	regVWCnt ir.Reg = 46
	regVWOff ir.Reg = 45
	regVWVal ir.Reg = 44
)

// emitter wraps ir.Builder with the workload-side conventions: the
// NoBarriers gate, volatileWork with the goroutine twin's exact PRNG draw
// order, and the outer per-op loop.
type emitter struct {
	*ir.Builder
	p      Params
	thread int
}

func newEmitter(p Params, thread int) *emitter {
	em := &emitter{
		Builder: ir.NewBuilder(p.Seed*1000003 + int64(thread)),
		p:       p,
		thread:  thread,
	}
	em.Const(regZero, 0)
	return em
}

// bAddr names one barrier address as reg[base] + off.
type bAddr struct {
	base ir.Reg
	off  uint64
}

// barrier emits the workload barrier over the given addresses — nothing at
// all under NoBarriers, mirroring the barrier() helper of the Env twins.
func (em *emitter) barrier(addrs ...bAddr) {
	if em.p.NoBarriers {
		return
	}
	for _, a := range addrs {
		em.BarrierAddr(a.base, a.off)
	}
	em.Barrier()
}

// volatileWork emits the DRAM-side store mix of volatileWork(): n draws of
// (Intn offset, Uint64 value) each stored to the thread's scratch buffer,
// then one load and a little compute.
func (em *emitter) volatileWork(n int) {
	if n <= 0 {
		return
	}
	base := uint64(volatileScratchBase(em.thread))
	em.Const(regVWCnt, uint64(n))
	top := em.NewLabel()
	em.Bind(top)
	em.RandIntn(regVWOff, 64*8)
	em.ShlImm(regVWOff, regVWOff, 3)
	em.Rand64(regVWVal)
	em.Store64(regVWVal, regVWOff, base)
	em.SubImm(regVWCnt, regVWCnt, 1)
	em.Bne(regVWCnt, regZero, top)
	em.Load64(regVWVal, regZero, base)
	em.Compute(uint64(4 * n))
}

// opLoop seals the program: body emitted once inside a loop that runs
// OpsPerThread times with the op index in counter, then Halt and Build.
func (em *emitter) opLoop(counter, limit ir.Reg, body func()) *ir.Prog {
	if em.p.OpsPerThread <= 0 {
		em.Halt()
		return em.Build()
	}
	em.Const(counter, 0)
	em.Const(limit, uint64(em.p.OpsPerThread))
	top := em.NewLabel()
	em.Bind(top)
	body()
	em.AddImm(counter, counter, 1)
	em.BltU(counter, limit, top)
	em.Halt()
	return em.Build()
}

// mustPow2 guards compile-time modulo-to-mask strength reduction.
func mustPow2(n int, what string) {
	if n <= 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("workload: %s (%d) must be a power of two to compile", what, n))
	}
}
