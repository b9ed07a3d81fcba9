package system

import (
	"runtime"
	"testing"
	"time"

	"bbb/internal/cpu"
	"bbb/internal/ir"
	"bbb/internal/memory"
	"bbb/internal/persistency"
)

// checkGoroutines fails t unless the goroutine count is back at base: a
// program coroutine left suspended by teardown shows up here.
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: a program coroutine leaked", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// endlessPrograms keep every core storing until teardown.
func endlessPrograms(sys *System) []Program {
	progs := make([]Program, sys.Cfg.Cores)
	for i := range progs {
		a := sys.Cfg.Layout.PersistentBase + memory.Addr(i)*64*1024
		progs[i] = func(e cpu.Env) {
			for k := uint64(0); ; k++ {
				cpu.Store64(e, a, k)
			}
		}
	}
	return progs
}

func TestRunUntilCrashLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	sys := New(smallConfig(persistency.BBB))
	if sys.RunUntil(5000, endlessPrograms(sys)) {
		t.Fatal("endless programs finished")
	}
	sys.Crash()
	sys.Shutdown() // a second teardown is a no-op
	checkGoroutines(t, base)
}

func TestRunUntilCompiledCrashLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	sys := New(smallConfig(persistency.BBB))
	progs := make([]CompiledProgram, sys.Cfg.Cores)
	for i := range progs {
		b := ir.NewBuilder(int64(i))
		loop := b.NewLabel()
		b.Const(0, sys.Cfg.Layout.PersistentBase+uint64(i)*64*1024)
		b.Bind(loop)
		b.AddImm(1, 1, 1)
		b.Store64(1, 0, 0)
		b.Jmp(loop)
		progs[i] = b.Build()
	}
	if sys.RunUntilCompiled(5000, progs) {
		t.Fatal("endless programs finished")
	}
	sys.Crash()
	checkGoroutines(t, base)
}

func TestRunPanicStopsOtherPrograms(t *testing.T) {
	base := runtime.NumGoroutine()
	sys := New(smallConfig(persistency.BBB))
	progs := endlessPrograms(sys)
	progs[2] = func(e cpu.Env) {
		e.Compute(100)
		panic("workload bug")
	}
	func() {
		defer func() {
			pp, ok := recover().(*cpu.ProgramPanic)
			if !ok || pp.Core != 2 || pp.Value != "workload bug" {
				t.Fatalf("Run panicked with %v, want core 2's workload panic", pp)
			}
		}()
		sys.Run(progs)
	}()
	checkGoroutines(t, base)
}
