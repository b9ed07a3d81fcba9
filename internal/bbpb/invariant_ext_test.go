// Step-wise bookkeeping audit of both persist-buffer organizations:
// standalone buffers (no hierarchy) are driven through fill, coalesce,
// threshold drain, forced drain, and migration-style removal, with
// invariant.Check after every engine event verifying occupancy, capacity,
// allocation-sequence order, and the in-order head-only-drain rule.
package bbpb_test

import (
	"testing"

	"bbb/internal/bbpb"
	"bbb/internal/engine"
	"bbb/internal/invariant"
	"bbb/internal/memctrl"
	"bbb/internal/memory"
)

type bufRig struct {
	t   *testing.T
	eng *engine.Engine
	mem *memory.Memory
	buf bbpb.PersistBuffer
}

func newBufRig(t *testing.T, entries int, proc bool) *bufRig {
	t.Helper()
	eng := engine.New()
	mem := memory.New(memory.DefaultLayout())
	nvmm := memctrl.New(memctrl.DefaultNVMM(), eng, mem)
	cfg := bbpb.Config{Entries: entries, DrainThreshold: 0.75}
	r := &bufRig{t: t, eng: eng, mem: mem}
	if proc {
		r.buf = bbpb.NewProcSide(cfg, 0, eng, nvmm)
	} else {
		r.buf = bbpb.New(cfg, 0, eng, nvmm)
	}
	return r
}

func (r *bufRig) addr(n uint64) memory.Addr {
	return r.mem.Layout().PersistentBase + memory.Addr(n)*memory.LineSize
}

func (r *bufRig) check() {
	r.t.Helper()
	if err := invariant.Check(invariant.View{Bufs: []bbpb.PersistBuffer{r.buf}}); err != nil {
		r.t.Fatalf("cycle %d: %v", r.eng.Now(), err)
	}
}

// step drains the event queue one event at a time, auditing between events.
func (r *bufRig) step() {
	r.t.Helper()
	for r.eng.Step() {
		r.check()
	}
}

func (r *bufRig) put(n uint64, v byte) {
	r.t.Helper()
	var d [memory.LineSize]byte
	d[0] = v
	if !r.buf.Put(r.addr(n), &d) {
		r.t.Fatalf("Put of line %d rejected", n)
	}
	r.check()
}

func runOrganizations(t *testing.T, fn func(t *testing.T, proc bool)) {
	t.Run("llc-side", func(t *testing.T) { fn(t, false) })
	t.Run("proc-side", func(t *testing.T) { fn(t, true) })
}

func TestStepwiseFillAndThresholdDrain(t *testing.T) {
	runOrganizations(t, func(t *testing.T, proc bool) {
		r := newBufRig(t, 8, proc)
		// Fill past the 75% threshold so background drains start, then keep
		// inserting while they complete; every event in between is audited.
		for i := uint64(0); i < 20; i++ {
			if r.buf.CanAccept(r.addr(i)) {
				r.put(i, byte(i))
			}
			r.step()
		}
		r.step()
		r.check()
	})
}

func TestStepwiseCoalesceKeepsSequenceOrder(t *testing.T) {
	runOrganizations(t, func(t *testing.T, proc bool) {
		r := newBufRig(t, 8, proc)
		// Re-writing a buffered line coalesces in place; the audit confirms
		// the allocation order stays strictly increasing throughout.
		for round := byte(0); round < 3; round++ {
			for i := uint64(0); i < 4; i++ {
				r.put(i, round)
				r.step()
			}
		}
		r.step()
		r.check()
	})
}

func TestStepwiseForceDrain(t *testing.T) {
	runOrganizations(t, func(t *testing.T, proc bool) {
		r := newBufRig(t, 8, proc)
		for i := uint64(0); i < 4; i++ {
			r.put(i, byte(i))
		}
		// Force the SECOND entry out (an LLC eviction of its block). The
		// proc-side buffer drains everything up to it in order; the
		// LLC-side buffer drains just that entry. Both must keep the
		// bookkeeping invariants at every event.
		done := false
		r.buf.ForceDrain(r.addr(1), func() { done = true })
		r.check()
		r.step()
		if !done {
			t.Fatal("forced drain never completed")
		}
		r.check()
	})
}

func TestStepwiseMigrationRemove(t *testing.T) {
	// Migration (Fig. 6) removes the entry from the old owner's buffer and
	// re-Puts it in the new owner's; audit both buffers across the handoff.
	r0 := newBufRig(t, 8, false)
	eng, mem := r0.eng, r0.mem
	nvmm := memctrl.New(memctrl.DefaultNVMM(), eng, mem)
	b1 := bbpb.New(bbpb.Config{Entries: 8, DrainThreshold: 0.75}, 1, eng, nvmm)
	bufs := []bbpb.PersistBuffer{r0.buf, b1}
	check := func() {
		t.Helper()
		if err := invariant.Check(invariant.View{Bufs: bufs}); err != nil {
			t.Fatalf("cycle %d: %v", eng.Now(), err)
		}
	}
	for i := uint64(0); i < 4; i++ {
		r0.put(i, byte(i))
		check()
	}
	for i := uint64(0); i < 4; i++ {
		data, ok := r0.buf.(*bbpb.Buffer).Remove(r0.addr(i))
		if !ok {
			t.Fatalf("line %d not found for migration", i)
		}
		check()
		if !b1.Put(r0.addr(i), &data) {
			t.Fatalf("destination rejected migrated line %d", i)
		}
		check()
		for eng.Step() {
			check()
		}
	}
	if occ := b1.Occupancy(); occ != 4 {
		t.Fatalf("destination occupancy = %d, want 4", occ)
	}
	check()
}
