package cpu

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"bbb/internal/engine"
)

// checkGoroutines fails t unless the goroutine count is back at base: a
// program coroutine that is never stopped stays parked forever and shows
// up here.
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

// infinite stores forever, recording that it unwound when abandoned.
func infinite(r *rig, unwound *bool) func(Env) {
	return func(e Env) {
		defer func() { *unwound = true }()
		for i := uint64(0); ; i++ {
			Store64(e, r.nv(i%4), i)
		}
	}
}

func TestStopBeforeFirstFetch(t *testing.T) {
	base := runtime.NumGoroutine()
	r := newRig(t, 1, DefaultConfig())
	ran := false
	r.cores[0].Start(func(e Env) { ran = true })
	r.cores[0].Stop()
	checkGoroutines(t, base)
	r.eng.Run() // the scheduled first fetch must not resume the program
	if ran {
		t.Fatal("program ran after Stop")
	}
}

func TestStopAbandonsProgram(t *testing.T) {
	base := runtime.NumGoroutine()
	r := newRig(t, 1, DefaultConfig())
	unwound := false
	r.cores[0].Start(infinite(r, &unwound))
	r.eng.RunUntil(200)
	r.cores[0].Stop() // must release the program without hanging the test
	if r.cores[0].Done() {
		t.Fatal("infinite program cannot be Done")
	}
	if !unwound {
		t.Fatal("Stop did not unwind the suspended program")
	}
	checkGoroutines(t, base)
}

func TestStopTwiceAndAfterDone(t *testing.T) {
	base := runtime.NumGoroutine()
	r := newRig(t, 2, DefaultConfig())
	unwound := false
	r.cores[0].Start(func(e Env) { Store64(e, r.nv(0), 1) })
	r.cores[1].Start(infinite(r, &unwound))
	r.eng.RunUntil(500)
	if !r.cores[0].Done() {
		t.Fatal("short program not done")
	}
	for _, c := range r.cores {
		c.Stop()
		c.Stop()
	}
	if !unwound {
		t.Fatal("Stop did not unwind the suspended program")
	}
	checkGoroutines(t, base)
}

// panickingWorkload is a named frame the propagated panic must still show.
func panickingWorkload(e Env) {
	e.Compute(10)
	panic("workload bug")
}

func TestProgramPanicReachesRunCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	r := newRig(t, 2, DefaultConfig())
	unwound := false
	r.cores[0].Start(panickingWorkload)
	r.cores[1].Start(infinite(r, &unwound))
	var got any
	func() {
		defer func() { got = recover() }()
		r.eng.Run()
	}()
	pp, ok := got.(*ProgramPanic)
	if !ok {
		t.Fatalf("Run panicked with %T %v, want *ProgramPanic", got, got)
	}
	if pp.Core != 0 || pp.Value != "workload bug" {
		t.Fatalf("ProgramPanic{Core: %d, Value: %v}, want core 0, \"workload bug\"", pp.Core, pp.Value)
	}
	if msg := pp.Error(); !strings.Contains(msg, "workload bug") || !strings.Contains(msg, "panickingWorkload") {
		t.Fatalf("panic message lost the workload's frame:\n%s", msg)
	}
	r.cores[1].Stop()
	checkGoroutines(t, base)
}

func TestEnvNowAtFirstInstruction(t *testing.T) {
	r := newRig(t, 1, DefaultConfig())
	const startAt = 77
	first := engine.Cycle(1 << 62)
	r.eng.Schedule(startAt, func() {
		r.cores[0].Start(func(e Env) { first = e.Now() })
	})
	r.eng.Run()
	if first != startAt {
		t.Fatalf("Env.Now at the first instruction = %d, want the first fetch's cycle %d", first, startAt)
	}
}

// BenchmarkEnvRoundTrip measures the program handoff alone: one Env.Compute
// round trip (yield to the core, one scheduled event, resume) per op.
func BenchmarkEnvRoundTrip(b *testing.B) {
	r := newRig(b, 1, DefaultConfig())
	r.cores[0].Start(func(e Env) {
		for i := 0; i < b.N; i++ {
			e.Compute(1)
		}
	})
	b.ResetTimer()
	r.eng.Run()
}
