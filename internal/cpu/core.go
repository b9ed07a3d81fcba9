// Package cpu models the cores driving the memory hierarchy: a 2 GHz core
// with a FIFO store buffer in front of the L1D, and the program interface
// that couples a workload to the discrete-event simulation.
//
// A workload runs as a coroutine of its core (iter.Pull): every Env call
// yields one request to the event loop and suspends the program until the
// core's completion event resumes it. Only one of the engine and the
// programs runs at any moment, with no channel or scheduler hop between
// them, so a simulated access costs two coroutine switches.
//
// The store buffer drains to the L1D strictly in order, one store at a
// time. That is what gives BBB program-order entry into the persistence
// domain (§III-D invariant 1): each persisting store allocates its bbPB
// entry, via the coherence layer, at the moment its L1D write commits, and
// those commits happen in program order. Under the paper's relaxed-
// consistency extension (§III-C) the store buffer itself is battery backed,
// which CrashDrain models.
package cpu

import (
	"fmt"
	"iter"
	"runtime/debug"

	"bbb/internal/coherence"
	"bbb/internal/engine"
	"bbb/internal/ir"
	"bbb/internal/memory"
	"bbb/internal/stats"
	"bbb/internal/trace"
)

// Config sizes one core.
type Config struct {
	// SBEntries is the store-buffer capacity (Table III: LSQ 32).
	SBEntries int
	// ExplicitPersist selects the PMEM programming model: Env.PersistBarrier
	// issues clwb+fence. When false (BBB, eADR) PersistBarrier is free.
	ExplicitPersist bool
	// EpochMode selects buffered epoch persistency: Env.PersistBarrier
	// marks an epoch boundary (one cheap instruction, no synchronous wait).
	EpochMode bool
	// BatteryBackedSB marks the store buffer as part of the persistence
	// domain (both BBB and eADR battery-back it; the PMEM baseline does not).
	BatteryBackedSB bool
	// StorePrefetch issues a request-for-ownership for a store's line the
	// moment the store enters the buffer, overlapping write-allocate
	// misses with earlier drains — a dash of the memory-level parallelism
	// an out-of-order core would extract. Off by default.
	StorePrefetch bool
	// RelaxedSBDrain models the §III-C relaxed consistency case: buffered
	// stores may write the L1D out of program order (same-line order is
	// always kept — single-address ordering is never relaxed). Program-
	// order *persistency* then rests entirely on the battery-backed store
	// buffer: stores enter the persistence domain at SB insertion, and the
	// crash drain replays the SB in program order. With a volatile SB
	// (PMEM) this mode widens the reordering the paper warns about.
	RelaxedSBDrain bool
}

// DefaultConfig returns the Table III core front-end.
func DefaultConfig() Config {
	return Config{SBEntries: 32}
}

type reqKind int

const (
	reqLoad reqKind = iota
	reqStore
	reqPersist // clwb
	reqFence   // sfence: wait for outstanding clwbs
	reqEpoch   // epoch barrier (buffered epoch persistency)
	reqCAS     // atomic compare-and-swap
	reqCompute
	reqDone
)

type request struct {
	kind   reqKind
	addr   memory.Addr
	size   int
	val    uint64
	old    uint64 // CAS expected value
	cycles engine.Cycle
}

type sbEntry struct {
	addr memory.Addr
	size int
	val  uint64
	enq  engine.Cycle // cycle the store entered the SB, for residency stats
}

// Core is one simulated core.
type Core struct {
	id  int
	cfg Config
	eng *engine.Engine
	h   *coherence.Hierarchy

	// next and stop drive the program coroutine (Start); resumeVal carries
	// the completed request's result back into it. nil for compiled
	// programs and before Start.
	next      func() (request, bool)
	stop      func()
	resumeVal uint64

	sb          []sbEntry
	sbDraining  bool
	sbInFlight  sbEntry    // the entry being drained, valid while sbDraining
	sbDrainDone func()     // preallocated completion for the in-flight drain
	sbWaiters   []sbWaiter // program stalled on an SB occupancy condition

	outstandingClwb int
	fenceWaiter     func()

	// Preallocated callbacks for the per-instruction schedule sites, so the
	// hot path (stores, loads, fences) schedules without allocating a fresh
	// closure per event: replyVal resumes the program with the event's
	// argument, reply0 with zero, fetchFn blocks for the next instruction,
	// and fenceReply is the one-cycle fence resume.
	replyVal   func(uint64)
	reply0     func()
	fetchFn    func()
	fenceReply func()

	// The program is synchronous, so at most one of each request kind can
	// be stalled/in flight at a time; these preallocated retry closures and
	// their pending-request slots replace the per-call closures the stall
	// and completion paths used to allocate.
	pendingStore      request
	pendingStoreStart engine.Cycle
	retryStoreFn      func()
	pendingLoad       request
	retryLoadFn       func()
	pendingPersist    request
	retryPersistFn    func()
	pendingCAS        request
	casFn             func()
	epochFn           func()
	clwbDone          func()

	// interp drives a compiled program (StartCompiled) inline from the
	// event kernel; nil for the coroutine path.
	interp    *ir.Interp
	interpAct ir.Action

	done     bool
	finished engine.Cycle

	// Stats carries per-core counters.
	Stats *stats.Counters
	// StallCycles accumulates cycles the program spent blocked on a full
	// store buffer.
	StallCycles engine.Cycle
}

// New builds a core. Call Start with the workload before running the engine.
func New(id int, cfg Config, eng *engine.Engine, h *coherence.Hierarchy) *Core {
	if cfg.SBEntries <= 0 {
		panic("cpu: SBEntries must be positive")
	}
	c := &Core{
		id:    id,
		cfg:   cfg,
		eng:   eng,
		h:     h,
		Stats: stats.NewCounters(),
	}
	c.replyVal = c.reply
	c.reply0 = func() { c.reply(0) }
	c.fetchFn = c.fetch
	c.fenceReply = func() { c.eng.Schedule(1, c.reply0) }
	c.retryStoreFn = func() { c.acceptStore(c.pendingStore, c.pendingStoreStart) }
	c.retryLoadFn = func() { c.issueLoad(c.pendingLoad) }
	c.retryPersistFn = func() { c.issuePersist(c.pendingPersist) }
	c.casFn = func() {
		c.h.AtomicCAS(c.id, c.pendingCAS.addr, c.pendingCAS.size, c.pendingCAS.old, c.pendingCAS.val, c.replyVal)
	}
	c.epochFn = func() {
		c.eng.EmitTrace(trace.KindEpochMark, c.id, 0, 0)
		c.h.EpochBarrier(c.id)
		c.reply(0)
	}
	c.clwbDone = func() {
		c.outstandingClwb--
		if c.outstandingClwb == 0 && c.fenceWaiter != nil {
			fn := c.fenceWaiter
			c.fenceWaiter = nil
			fn()
		}
	}
	// At most one SB drain is in flight (sbDraining), so a single
	// preallocated completion closure serves every drain.
	c.sbDrainDone = func() {
		for i := range c.sb {
			if c.sb[i] == c.sbInFlight {
				c.eng.Metrics.Observe("cpu.sb_residency", uint64(c.eng.Now()-c.sb[i].enq))
				c.sb = append(c.sb[:i], c.sb[i+1:]...)
				break
			}
		}
		c.sbDraining = false
		c.wakeSBWaiters()
		c.pumpSB()
	}
	return c
}

// ID returns the core number.
func (c *Core) ID() int { return c.id }

// Done reports whether the program has finished.
func (c *Core) Done() bool { return c.done }

// FinishedAt returns the cycle the program finished (valid once Done).
func (c *Core) FinishedAt() engine.Cycle { return c.finished }

// Start wraps the workload in a coroutine and schedules the core's first
// instruction fetch. run executes against the core's Env and must use only
// that Env to touch simulated memory.
//
// The coroutine does not run until the core's cycle-0 fetch event pulls
// its first request, so the program never runs ahead of the event loop:
// its first instruction sees Env.Now equal to the cycle of that fetch.
//
// A workload panic unwinds out of the engine's Run into its caller as a
// *ProgramPanic, which carries the program's own stack.
func (c *Core) Start(run func(Env)) {
	e := &env{core: c}
	c.next, c.stop = iter.Pull(func(yield func(request) bool) {
		defer func() {
			if r := recover(); r != nil && r != errAbandoned {
				panic(&ProgramPanic{Core: c.id, Value: r, Stack: debug.Stack()})
			}
		}()
		e.yield = yield
		run(e)
	})
	c.eng.Schedule(0, c.fetchFn)
}

// ProgramPanic is what a panicking workload raises out of the engine's Run:
// the coroutine re-panics on the engine's stack, so the program's stack is
// captured where the panic started.
type ProgramPanic struct {
	Core  int
	Value any
	Stack []byte
}

func (p *ProgramPanic) Error() string {
	return fmt.Sprintf("cpu: core %d program panicked: %v\n\n%s", p.Core, p.Value, p.Stack)
}

// StartCompiled schedules a compiled program on the core. The interpreter
// runs inline from the event kernel — no coroutine switch — feeding the
// same handle() dispatch the coroutine path uses, so both paths schedule
// identical events and produce byte-identical results.
func (c *Core) StartCompiled(p *ir.Prog) {
	c.interp = new(ir.Interp)
	c.interp.Reset(p, ir.Config{
		ExplicitPersist: c.cfg.ExplicitPersist,
		EpochMode:       c.cfg.EpochMode,
	})
	c.eng.Schedule(0, c.fetchFn)
}

// stepCompiled advances the interpreter to its next machine action and
// dispatches it; val resumes a pending load/CAS result, mirroring
// resumeVal on the coroutine path.
func (c *Core) stepCompiled(val uint64) {
	a := &c.interpAct
	c.interp.Next(val, a)
	switch a.Kind {
	case ir.ActionDone:
		c.handle(request{kind: reqDone})
	case ir.ActionLoad:
		c.handle(request{kind: reqLoad, addr: a.Addr, size: a.Size})
	case ir.ActionStore:
		c.handle(request{kind: reqStore, addr: a.Addr, size: a.Size, val: a.Val})
	case ir.ActionFlush:
		c.handle(request{kind: reqPersist, addr: a.Addr})
	case ir.ActionFence:
		c.handle(request{kind: reqFence})
	case ir.ActionEpoch:
		c.handle(request{kind: reqEpoch})
	case ir.ActionCompute:
		c.handle(request{kind: reqCompute, cycles: a.Cycles})
	case ir.ActionCAS:
		c.handle(request{kind: reqCAS, addr: a.Addr, size: a.Size, old: a.Old, val: a.Val})
	default:
		panic(fmt.Sprintf("cpu: unknown compiled action %d", a.Kind))
	}
}

// Stop abandons the workload; used at crash points and teardown. A
// program suspended in an Env call unwinds (its deferred calls run) and
// its coroutine exits. Safe before Start, before the first fetch, after
// the program finished and more than once.
func (c *Core) Stop() {
	if c.stop != nil {
		c.stop()
	}
}

// fetch obtains the program's next request: compiled programs step the
// inline interpreter; coroutine programs run until their next Env call
// yields a request, or until they return, which is the Done request.
func (c *Core) fetch() {
	if c.interp != nil {
		// Only the initial scheduled fetch lands here; the interpreter has
		// no pending value to resume, so the argument is ignored.
		c.stepCompiled(0)
		return
	}
	req, ok := c.next()
	if !ok {
		req = request{kind: reqDone}
	}
	c.handle(req)
}

func (c *Core) handle(req request) {
	switch req.kind {
	case reqDone:
		c.done = true
		c.finished = c.eng.Now()
		// No resume: the program has returned.

	case reqCompute:
		c.Stats.Add("core.compute_cycles", uint64(req.cycles))
		c.eng.Schedule(req.cycles, c.reply0)

	case reqLoad:
		c.Stats.Inc("core.loads")
		c.issueLoad(req)

	case reqStore:
		c.Stats.Inc("core.stores")
		c.acceptStore(req, c.eng.Now())

	case reqPersist:
		c.Stats.Inc("core.clwbs")
		c.eng.EmitTrace(trace.KindClwb, c.id, uint64(memory.LineAddr(req.addr)), 0)
		c.issuePersist(req)

	case reqFence:
		c.Stats.Inc("core.fences")
		c.eng.EmitTrace(trace.KindFence, c.id, 0, 0)
		c.issueFence()

	case reqCAS:
		c.Stats.Inc("core.atomics")
		// Atomics act as a local fence: the store buffer drains first so
		// the RMW observes and extends program order.
		c.pendingCAS = req
		c.waitSBBelow(0, c.casFn)

	case reqEpoch:
		c.Stats.Inc("core.epoch_barriers")
		// The boundary must order stores still in the SB into the earlier
		// epoch, so it takes effect once the SB has drained past them.
		c.waitSBBelow(0, c.epochFn)

	default:
		panic(fmt.Sprintf("cpu: unknown request kind %d", req.kind))
	}
}

// reply resumes the program with val and advances to its next request:
// inline interpreter step for compiled programs, a coroutine switch for
// the others.
func (c *Core) reply(val uint64) {
	if c.interp != nil {
		c.stepCompiled(val)
		return
	}
	c.resumeVal = val
	c.fetch()
}

// --- store buffer ---

// acceptStore places the store into the SB, stalling the program while the
// SB is full. start is when the program first attempted the store, for
// stall accounting.
func (c *Core) acceptStore(req request, start engine.Cycle) {
	if len(c.sb) >= c.cfg.SBEntries {
		c.Stats.Inc("core.sb_full_stalls")
		c.pendingStore, c.pendingStoreStart = req, start
		c.sbWaiters = append(c.sbWaiters, sbWaiter{n: -1, fn: c.retryStoreFn})
		return
	}
	c.StallCycles += c.eng.Now() - start
	c.sb = append(c.sb, sbEntry{addr: req.addr, size: req.size, val: req.val, enq: c.eng.Now()})
	// With drains queued ahead of this store, warming its line overlaps
	// the write-allocate miss with the queue.
	if c.cfg.StorePrefetch && len(c.sb) > 1 {
		c.h.PrefetchExclusive(c.id, req.addr, nil)
	}
	c.pumpSB()
	// A store retires into the SB immediately; charge one issue cycle.
	c.eng.Schedule(1, c.reply0)
}

// pumpSB drains one buffered store to the L1D at a time: the head in
// program order (TSO-style), or — under RelaxedSBDrain — the oldest entry
// whose line is already writable in the L1, provided no older entry
// targets the same line (single-address order is never relaxed).
func (c *Core) pumpSB() {
	if c.sbDraining || len(c.sb) == 0 {
		return
	}
	idx := 0
	if c.cfg.RelaxedSBDrain {
		idx = c.pickRelaxedDrain()
	}
	c.sbDraining = true
	e := c.sb[idx]
	if idx != 0 {
		c.Stats.Inc("core.sb_reordered_drains")
	}
	c.sbInFlight = e
	c.h.Store(c.id, e.addr, e.size, e.val, c.sbDrainDone)
}

// pickRelaxedDrain returns the index of the first entry with a locally
// writable line and no older same-line entry, or 0 (the head).
func (c *Core) pickRelaxedDrain() int {
	for i := range c.sb {
		la := memory.LineAddr(c.sb[i].addr)
		older := false
		for j := 0; j < i; j++ {
			if memory.LineAddr(c.sb[j].addr) == la {
				older = true
				break
			}
		}
		if older {
			continue
		}
		if c.h.LineWritable(c.id, la) {
			return i
		}
	}
	return 0
}

// sbWaiter is one parked continuation: fn runs once the SB has at most n
// entries, or immediately on wake when n < 0 (the full-SB store retry,
// which re-checks fullness itself). Storing (n, fn) instead of a wrapper
// closure keeps the park/re-park cycle allocation-free — the fns are the
// core's preallocated retry closures.
type sbWaiter struct {
	n  int
	fn func()
}

func (c *Core) wakeSBWaiters() {
	// Snapshot: a still-blocked waiter re-appends itself, so iterating the
	// live slice would spin.
	waiters := c.sbWaiters
	c.sbWaiters = c.sbWaiters[len(c.sbWaiters):]
	for _, w := range waiters {
		if w.n < 0 {
			w.fn()
			continue
		}
		c.waitSBBelow(w.n, w.fn)
	}
}

// --- loads ---

// issueLoad forwards from the SB when possible; an exact-match entry
// supplies the value directly, a partial overlap waits for the SB to drain
// past it (conservative but correct).
func (c *Core) issueLoad(req request) {
	for i := len(c.sb) - 1; i >= 0; i-- {
		e := c.sb[i]
		if e.addr == req.addr && e.size == req.size {
			c.Stats.Inc("core.sb_forwards")
			c.eng.ScheduleArg(1, c.replyVal, e.val)
			return
		}
		if overlaps(e, req) {
			c.Stats.Inc("core.sb_overlap_stalls")
			c.pendingLoad = req
			c.waitSBBelow(i, c.retryLoadFn)
			return
		}
	}
	c.h.Load(c.id, req.addr, req.size, c.replyVal)
}

// waitSBBelow runs fn once the SB has drained to at most n entries.
func (c *Core) waitSBBelow(n int, fn func()) {
	if len(c.sb) <= n {
		c.eng.Schedule(0, fn)
		return
	}
	c.sbWaiters = append(c.sbWaiters, sbWaiter{n: n, fn: fn})
}

func overlaps(e sbEntry, req request) bool {
	aLo, aHi := e.addr, e.addr+memory.Addr(e.size)
	bLo, bHi := req.addr, req.addr+memory.Addr(req.size)
	return aLo < bHi && bLo < aHi
}

// --- persistence instructions (PMEM baseline) ---

// issuePersist waits for SB entries to the target line to drain, then
// issues a clwb; the program resumes immediately (clwb is asynchronous,
// sfence provides the wait).
func (c *Core) issuePersist(req request) {
	la := memory.LineAddr(req.addr)
	for i := len(c.sb) - 1; i >= 0; i-- {
		if memory.LineAddr(c.sb[i].addr) == la {
			c.pendingPersist = req
			c.waitSBBelow(i, c.retryPersistFn)
			return
		}
	}
	c.outstandingClwb++
	c.h.Clwb(c.id, la, c.clwbDone)
	c.eng.Schedule(1, c.reply0)
}

// issueFence blocks the program until every outstanding clwb has reached
// the persistence domain.
func (c *Core) issueFence() {
	if c.outstandingClwb == 0 {
		c.eng.Schedule(1, c.reply0)
		return
	}
	if c.fenceWaiter != nil {
		panic("cpu: concurrent fences on one core")
	}
	c.fenceWaiter = c.fenceReply
}

// --- crash support ---

// SBOccupancy reports the number of buffered stores.
func (c *Core) SBOccupancy() int { return len(c.sb) }

// BatteryBackedSB reports whether this core's store buffer is inside the
// persistence domain (§III-C).
func (c *Core) BatteryBackedSB() bool { return c.cfg.BatteryBackedSB }

// CrashDrainSB flushes buffered stores for persistent addresses straight to
// the durable image via write (a read-modify-write at line granularity),
// preserving program order. Only meaningful when the store buffer is
// battery backed (§III-C); callers decide based on the scheme.
func (c *Core) CrashDrainSB(read func(memory.Addr, *[memory.LineSize]byte), write func(memory.Addr, *[memory.LineSize]byte), persistent func(memory.Addr) bool) int {
	n := 0
	for _, e := range c.sb {
		if !persistent(e.addr) {
			continue
		}
		la := memory.LineAddr(e.addr)
		var line [memory.LineSize]byte
		read(la, &line)
		writeValueAt(&line, memory.LineOffset(e.addr), e.size, e.val)
		write(la, &line)
		c.eng.EmitTrace(trace.KindCrashDrain, c.id, uint64(la), 0)
		n++
	}
	c.sb = c.sb[:0]
	return n
}

func writeValueAt(data *[memory.LineSize]byte, off, size int, val uint64) {
	for i := 0; i < size; i++ {
		data[off+i] = byte(val >> (8 * uint(i)))
	}
}
