package main

import (
	"fmt"
	"runtime/debug"
	"time"

	"bbb/internal/cpu"
	"bbb/internal/engine"
	"bbb/internal/memory"
	"bbb/internal/persistency"
	"bbb/internal/system"
	"bbb/internal/workload"
)

// runner executes tasks. With tracing off, tr and env are nil and the only
// host times it takes are each task's and its workload.Build's.
type runner struct {
	tr    *tracer
	env   *envTotals
	built time.Duration // host time in workload.Build since the pass began
}

// span runs f as one call into a layer, recorded as a span when tracing.
func (r *runner) span(name string, id int, f func()) {
	if r.tr == nil {
		f()
		return
	}
	i := r.tr.open(name, id)
	f()
	r.tr.close(i)
}

func (r *runner) byName(name string, id int) workload.Workload {
	var w workload.Workload
	var err error
	r.span("workload.ByName", id, func() { w, err = workload.ByName(name) })
	if err != nil {
		panic(err)
	}
	return w
}

// build times workload.Build and wraps the programs it returns: every
// program records its own panic instead of killing the process, and with
// tracing on every Env call is counted and timed.
func (r *runner) build(w workload.Workload, s persistency.Scheme, cfg system.Config, p workload.Params, id int) (*system.System, []system.Program, *panicSlots) {
	var sys *system.System
	var progs []system.Program
	start := time.Now()
	r.span("workload.Build", id, func() { sys, progs = workload.Build(w, s, cfg, p) })
	r.built += time.Since(start)
	slots := &panicSlots{v: make([]string, len(progs))}
	for i, prog := range progs {
		if r.env != nil {
			prog = r.env.wrap(prog)
		}
		progs[i] = slots.guard(i, prog)
	}
	return sys, progs, slots
}

// runTask runs t, turning a panic into a failed outcome, and times it.
func (r *runner) runTask(t task, id int) (o outcome) {
	start, built := time.Now(), r.built
	defer func() { o.wall, o.build = time.Since(start), r.built-built }()
	depth := 0
	if r.tr != nil {
		depth = len(r.tr.stack)
		i := r.tr.open("task", id)
		defer r.tr.close(i)
	}
	defer r.env.collect()
	defer func() {
		if v := recover(); v != nil {
			if r.tr != nil {
				r.tr.unwind(depth + 1)
			}
			o = outcome{err: fmt.Errorf("panic: %v\n%s", v, debug.Stack())}
		}
	}()
	return t.run(r, id)
}

// panicSlots holds the panic of each program of one run. A program that
// panics returns early, so the machine still finishes and the run is
// reported as failed rather than dropped.
type panicSlots struct{ v []string }

// abandoned is the message of the cpu package's teardown panic, which
// must keep unwinding the program goroutine.
const abandoned = "cpu: simulation abandoned"

func (ps *panicSlots) guard(i int, p system.Program) system.Program {
	return func(e cpu.Env) {
		defer func() {
			if v := recover(); v != nil {
				if err, ok := v.(error); ok && err.Error() == abandoned {
					panic(v)
				}
				ps.v[i] = fmt.Sprintf("%v\n%s", v, debug.Stack())
			}
		}()
		p(e)
	}
}

// err reports the first program panic. Call it only after the machine
// stopped: the engine's request/resume handoff orders the programs' writes
// before Run and RunUntil return.
func (ps *panicSlots) err() error {
	for i, v := range ps.v {
		if v != "" {
			return fmt.Errorf("program %d panicked: %s", i, v)
		}
	}
	return nil
}

// envTotals accumulates the Env decorator's counts over a pass.
type envTotals struct {
	calls uint64
	prog  time.Duration // host time the programs ran between Env calls
	live  []*timedEnv   // decorators of the run in flight
}

func (t *envTotals) wrap(p system.Program) system.Program {
	te := &timedEnv{}
	t.live = append(t.live, te)
	return func(e cpu.Env) {
		te.Env = e
		te.resumed = time.Now()
		p(te)
		te.prog += time.Since(te.resumed)
	}
}

// collect folds the decorators of the stopped machine into the totals.
func (t *envTotals) collect() {
	if t == nil {
		return
	}
	for _, te := range t.live {
		t.calls += te.calls
		t.prog += te.prog
	}
	t.live = t.live[:0]
}

// timedEnv counts every Env call and times the program between calls: a
// call that hands the core to the engine ends the program's running
// interval and its return starts the next. Only one goroutine runs at a
// time under the engine's request/resume handoff, so the programs' times
// add up without overlap; the rest of System.Run is the engine and the
// handoff. Being a different type than the cpu package's Env, timedEnv
// makes cpu.PersistBarrier take its allocating path: the traced run's
// allocations are inflated by that, the untraced numbers never are.
type timedEnv struct {
	cpu.Env
	calls   uint64
	prog    time.Duration
	resumed time.Time // when the program last got the core back
}

// yield ends the program's running interval before a handoff.
func (e *timedEnv) yield() {
	e.calls++
	e.prog += time.Since(e.resumed)
}

func (e *timedEnv) CoreID() int {
	e.calls++
	return e.Env.CoreID()
}

func (e *timedEnv) Load(addr memory.Addr, size int) uint64 {
	e.yield()
	v := e.Env.Load(addr, size)
	e.resumed = time.Now()
	return v
}

func (e *timedEnv) Store(addr memory.Addr, size int, val uint64) {
	e.yield()
	e.Env.Store(addr, size, val)
	e.resumed = time.Now()
}

func (e *timedEnv) PersistBarrier(addrs ...memory.Addr) {
	e.yield()
	e.Env.PersistBarrier(addrs...)
	e.resumed = time.Now()
}

func (e *timedEnv) Flush(addr memory.Addr) {
	e.yield()
	e.Env.Flush(addr)
	e.resumed = time.Now()
}

func (e *timedEnv) Fence() {
	e.yield()
	e.Env.Fence()
	e.resumed = time.Now()
}

func (e *timedEnv) Compute(n engine.Cycle) {
	e.yield()
	e.Env.Compute(n)
	e.resumed = time.Now()
}

func (e *timedEnv) CompareAndSwap(addr memory.Addr, size int, old, new uint64) (uint64, bool) {
	e.yield()
	prev, ok := e.Env.CompareAndSwap(addr, size, old, new)
	e.resumed = time.Now()
	return prev, ok
}

// Now reads the clock without a handoff, so it stays program time.
func (e *timedEnv) Now() engine.Cycle {
	e.calls++
	return e.Env.Now()
}
