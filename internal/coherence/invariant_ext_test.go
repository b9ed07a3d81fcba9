// Step-wise invariant auditing: a BBB machine is driven one memory
// operation at a time and invariant.CheckSystem runs after every engine
// event, so the exact step that corrupts coherence or dirty inclusion is
// the step that fails. The address streams are small enough that checking
// after every event costs milliseconds, so the harness runs in every
// `go test`.
package coherence_test

import (
	"testing"

	"bbb/internal/invariant"
	"bbb/internal/memory"
	"bbb/internal/persistency"
	"bbb/internal/system"
)

func newAuditedSystem(t *testing.T, scheme persistency.Scheme) *system.System {
	t.Helper()
	cfg := system.DefaultConfig(scheme)
	cfg.Cores = 2
	// Tiny caches so modest address streams overflow the LLC and take the
	// eviction + forced-drain paths.
	cfg.Hierarchy.L1Size = 1024
	cfg.Hierarchy.L2Size = 2048
	return system.New(cfg)
}

// stepAudited drains the event queue one event at a time, checking the
// whole machine between events.
func stepAudited(t *testing.T, sys *system.System) {
	t.Helper()
	for sys.Eng.Step() {
		if err := invariant.CheckSystem(sys); err != nil {
			t.Fatalf("cycle %d: %v", sys.Eng.Now(), err)
		}
	}
}

func persistentLine(sys *system.System, n uint64) memory.Addr {
	return sys.Cfg.Layout.PersistentBase + memory.Addr(n)*memory.LineSize
}

func TestStepwiseEvictionsKeepDirtyInclusion(t *testing.T) {
	sys := newAuditedSystem(t, persistency.BBB)
	// 3x the 32-line LLC of persistent stores: every line past the first
	// 32 evicts an earlier one, which must force-drain its bbPB entry in
	// the same event.
	for i := uint64(0); i < 96; i++ {
		done := false
		sys.Hier.Store(0, persistentLine(sys, i), 8, i, func() { done = true })
		stepAudited(t, sys)
		if !done {
			t.Fatalf("store %d never completed", i)
		}
	}
	if err := invariant.CheckSystem(sys); err != nil {
		t.Fatalf("final state: %v", err)
	}
}

func TestStepwiseMigrationMovesEntries(t *testing.T) {
	sys := newAuditedSystem(t, persistency.BBB)
	// Write the same persistent lines from both cores alternately: each
	// remote write must migrate the bbPB entry (never duplicate it).
	for round := 0; round < 4; round++ {
		for i := uint64(0); i < 8; i++ {
			core := (round + int(i)) % 2
			done := false
			sys.Hier.Store(core, persistentLine(sys, i), 8, uint64(round), func() { done = true })
			stepAudited(t, sys)
			if !done {
				t.Fatalf("round %d store %d never completed", round, i)
			}
		}
	}
	if err := invariant.CheckSystem(sys); err != nil {
		t.Fatalf("final state: %v", err)
	}
}

func TestStepwiseConcurrentMixedTraffic(t *testing.T) {
	for _, scheme := range []persistency.Scheme{persistency.BBB, persistency.BBBProc} {
		t.Run(scheme.String(), func(t *testing.T) {
			sys := newAuditedSystem(t, scheme)
			vBase := memory.Addr(0x4000)
			// Launch overlapping transactions from both cores — persistent
			// stores, volatile stores, and cross-core loads of buffered
			// lines — then audit every event of the combined drain.
			pending := 0
			dec := func() { pending-- }
			for i := uint64(0); i < 24; i++ {
				pending += 3
				sys.Hier.Store(0, persistentLine(sys, i%12), 8, i, dec)
				sys.Hier.Store(1, vBase+memory.Addr(i)*memory.LineSize, 8, i, dec)
				sys.Hier.Load(1, persistentLine(sys, i%12), 8, func(uint64) { dec() })
				stepAudited(t, sys)
			}
			if pending != 0 {
				t.Fatalf("%d operations never completed", pending)
			}
			if err := invariant.CheckSystem(sys); err != nil {
				t.Fatalf("final state: %v", err)
			}
		})
	}
}
