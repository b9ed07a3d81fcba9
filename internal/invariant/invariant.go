// Package invariant is the runtime counterpart of cmd/bbbvet: it asserts,
// on a live simulated machine, the structural invariants the paper's
// correctness argument rests on, so a regression in the coherence protocol
// or the persist-buffer logic fails loudly at the step that broke the
// state instead of as a wrong number three figures later.
//
// Checked (between engine events, i.e. at event-loop quiescence):
//
//   - the coherence hierarchy's own invariants (L1 inclusion in L2,
//     directory sharer/owner consistency, single writer per line);
//   - every bbPB entry not currently draining has an LLC copy of its
//     block, marked persistent and dirty somewhere in the hierarchy — the
//     paper's dirty-inclusion property (§III-B, §III-E) that lets BBB skip
//     LLC writebacks of persistent lines. Entries whose block just left
//     the LLC are force-drained synchronously within the evicting event,
//     which is why the property holds whenever the event loop is idle;
//   - buffer bookkeeping: Occupancy agrees with the entry walk and never
//     exceeds capacity, allocation sequence numbers strictly increase in
//     list order, and an in-order (processor-side) buffer only ever has
//     its head entry draining;
//   - no block has live entries in two cores' buffers at once — remote
//     writes must migrate the entry (Fig. 6 a/b), not copy it — and a
//     coalescing (LLC-side) buffer never holds two live entries for one
//     block. An in-order processor-side buffer may: it only coalesces
//     with its youngest entry (§III-B), so a repeat of an older block
//     legitimately re-allocates.
//
// The checks are read-only. One caveat: a clwb-style instruction cleans
// cached copies without touching buffers, so the dirty-copy check assumes
// the BBB schemes' implicit-persist model (no clwb traffic), which is how
// every BBB configuration in this repository runs.
package invariant

import (
	"fmt"

	"bbb/internal/bbpb"
	"bbb/internal/coherence"
	"bbb/internal/engine"
	"bbb/internal/memory"
	"bbb/internal/system"
)

// View is the slice of a machine the checker audits. Hier may be nil
// (buffers checked alone) and Bufs may be empty (coherence checked alone),
// so partial rigs in unit tests work.
type View struct {
	Hier *coherence.Hierarchy
	Bufs []bbpb.PersistBuffer // indexed by core
}

// Check validates every invariant and returns the first violation.
// Call it only between engine events: mid-event state is legitimately
// transient (an eviction invalidates the LLC copy before the forced drain
// marks the buffer entry draining within the same event).
func Check(v View) error {
	if v.Hier != nil {
		if err := v.Hier.CheckInvariants(); err != nil {
			return fmt.Errorf("coherence: %w", err)
		}
	}
	type holder struct {
		core int
	}
	live := make(map[memory.Addr]holder)
	for core, b := range v.Bufs {
		if b == nil {
			continue
		}
		var err error
		n := 0
		lastSeq := uint64(0)
		inOrder := b.InOrder()
		b.ForEachEntry(func(addr memory.Addr, seq uint64, draining bool) {
			idx := n
			n++
			if err != nil {
				return
			}
			if idx > 0 && seq <= lastSeq {
				err = fmt.Errorf("bbPB[%d]: entry %#x seq %d <= predecessor seq %d; allocation order broken", core, addr, seq, lastSeq)
				return
			}
			lastSeq = seq
			if inOrder && draining && idx != 0 {
				err = fmt.Errorf("bbPB[%d]: in-order buffer has non-head entry %#x draining", core, addr)
				return
			}
			if draining {
				return // its durability is the in-flight NVMM write's job
			}
			if prev, dup := live[addr]; dup {
				switch {
				case prev.core != core:
					err = fmt.Errorf("block %#x buffered by both bbPB[%d] and bbPB[%d]; migration must move entries, not copy them", addr, prev.core, core)
					return
				case !inOrder:
					err = fmt.Errorf("bbPB[%d]: block %#x has two live entries; a coalescing buffer must merge repeat stores", core, addr)
					return
				}
				// An in-order buffer legitimately holds one entry per store
				// to a block: it may only coalesce with its youngest entry
				// (§III-B), so repeats of an older block re-allocate.
			}
			live[addr] = holder{core}
			if v.Hier == nil {
				return
			}
			lv := v.Hier.ViewLine(addr)
			switch {
			case !lv.InL2:
				err = fmt.Errorf("bbPB[%d]: buffered block %#x has no LLC copy; dirty inclusion broken (paper §III-B)", core, addr)
			case !lv.L2Persistent:
				err = fmt.Errorf("bbPB[%d]: buffered block %#x cached without the Persistent mark", core, addr)
			case !lv.DirtyAnywhere:
				err = fmt.Errorf("bbPB[%d]: buffered block %#x has no dirty cached copy; its eviction would silently skip the drain (paper §III-E)", core, addr)
			}
		})
		if err != nil {
			return err
		}
		if occ := b.Occupancy(); occ != n {
			return fmt.Errorf("bbPB[%d]: Occupancy()=%d but the entry walk yields %d", core, occ, n)
		}
		if n > b.Cap() {
			return fmt.Errorf("bbPB[%d]: %d entries exceed capacity %d", core, n, b.Cap())
		}
	}
	return nil
}

// SystemView extracts the checkable slice of a wired machine.
func SystemView(s *system.System) View {
	return View{Hier: s.Hier, Bufs: s.Model.Buffers}
}

// CheckSystem audits a wired machine (the persist buffers exist only for
// the BBB schemes; other schemes get the coherence checks alone).
func CheckSystem(s *system.System) error {
	return Check(SystemView(s))
}

// Attach arms a periodic audit on the machine's engine: every period
// cycles, CheckSystem runs and its first violation is handed to report
// (which may panic, t.Fatal, or log). The ticker stops after a violation
// or once stop returns true. bbb.RunChecked (bbbsim -check) uses this to
// audit whole runs.
func Attach(s *system.System, period engine.Cycle, stop func() bool, report func(error)) {
	s.Eng.Ticker(period, func() bool {
		if err := CheckSystem(s); err != nil {
			report(err)
			return false
		}
		return !stop()
	})
}
