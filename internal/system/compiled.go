package system

import (
	"fmt"

	"bbb/internal/engine"
	"bbb/internal/ir"
)

// CompiledProgram is one thread's workload body in compiled form: an ir.Prog
// the core interprets inline from the event kernel instead of running a
// coroutine. RunCompiled produces byte-identical Results to Run over the
// cpu.Env twins — that equivalence is gated by `make ir-equiv`.
type CompiledProgram = *ir.Prog

// RunCompiled is Run over compiled programs: one per core, run to
// completion, WPQ finalized.
func (s *System) RunCompiled(programs []CompiledProgram) Result {
	if len(programs) != s.Cfg.Cores {
		panic(fmt.Sprintf("system: %d compiled programs for %d cores", len(programs), s.Cfg.Cores))
	}
	for i, p := range programs {
		s.Cores[i].StartCompiled(p)
	}
	s.Eng.Run()
	for i, c := range s.Cores {
		if !c.Done() {
			panic(fmt.Sprintf("system: core %d never finished (deadlock?)", i))
		}
	}
	s.Shutdown()
	// Flush the WPQ so every scheme's durable write count is measured at
	// the same architectural point.
	s.NVMM.CrashDrain()
	return s.result()
}

// RunUntilCompiled is RunUntil over compiled programs; used by crash
// injection on the compiled path.
func (s *System) RunUntilCompiled(limit engine.Cycle, programs []CompiledProgram) bool {
	if len(programs) != s.Cfg.Cores {
		panic(fmt.Sprintf("system: %d compiled programs for %d cores", len(programs), s.Cfg.Cores))
	}
	for i, p := range programs {
		s.Cores[i].StartCompiled(p)
	}
	s.Eng.RunUntil(limit)
	done := true
	for _, c := range s.Cores {
		if !c.Done() {
			done = false
		}
	}
	return done
}
