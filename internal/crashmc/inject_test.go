package crashmc

import (
	"testing"

	"bbb/internal/persistency"
	"bbb/internal/system"
	"bbb/internal/workload"
)

// injectConfig is a crash-injection campaign: the checker bounded to the
// one deterministic flush-on-fail image per crash point, so
// TotalViolating counts inconsistent points.
func injectConfig(w workload.Workload, s persistency.Scheme, noBarriers bool) Config {
	cfg := system.DefaultConfig(s)
	cfg.Hierarchy.L1Size = 1024
	cfg.Hierarchy.L2Size = 4096 // tiny caches reorder persists aggressively
	p := workload.DefaultParams()
	p.Threads = 4
	p.OpsPerThread = 300
	p.NoBarriers = noBarriers
	return Config{
		Workload:   w,
		Scheme:     s,
		System:     cfg,
		Params:     p,
		FirstCrash: 5_000,
		Step:       7_000,
		Points:     12,
		Bounds:     Bounds{MaxImages: 1},
	}
}

// requireConsistent fails t with the first inconsistent point, if any.
func requireConsistent(t *testing.T, rep Report, what string) {
	t.Helper()
	if rep.TotalViolating != 0 {
		w := rep.FirstWitness()
		t.Fatalf("%s inconsistent at cycle %d: %s", what, w.CrashCycle, w.Err)
	}
}

func TestBBBNoBarriersAlwaysConsistent(t *testing.T) {
	rep := injectConfig(workload.NewLinkedList(), persistency.BBB, true).Run()
	requireConsistent(t, rep, "BBB without barriers")
}

func TestEADRNoBarriersAlwaysConsistent(t *testing.T) {
	rep := injectConfig(workload.NewLinkedList(), persistency.EADR, true).Run()
	requireConsistent(t, rep, "eADR without barriers")
}

func TestPMEMWithBarriersAlwaysConsistent(t *testing.T) {
	rep := injectConfig(workload.NewLinkedList(), persistency.PMEM, false).Run()
	requireConsistent(t, rep, "PMEM with barriers (Figure 3)")
}

func TestPMEMNoBarriersInconsistent(t *testing.T) {
	rep := injectConfig(workload.NewLinkedList(), persistency.PMEM, true).Run()
	if rep.TotalViolating == 0 {
		t.Fatal("PMEM without barriers (Figure 2) survived all crash points; the bug should reproduce")
	}
	t.Log(rep.String())
}

func TestBEPWithEpochBarriersConsistent(t *testing.T) {
	// Buffered epoch persistency with the Figure 3 barriers (as epoch
	// markers): every crash leaves an epoch prefix, which keeps the list
	// walkable.
	rep := injectConfig(workload.NewLinkedList(), persistency.BEP, false).Run()
	requireConsistent(t, rep, "BEP with barriers")
}

func TestBEPNoBarriersEventuallyInconsistent(t *testing.T) {
	// Without epoch markers everything shares one epoch, so same-epoch
	// coalescing lets a later head update persist with an earlier drain
	// slot — the same reordering hazard as Figure 2.
	cc := injectConfig(workload.NewLinkedList(), persistency.BEP, true)
	cc.Points = 20
	rep := cc.Run()
	if rep.TotalViolating == 0 {
		t.Log("note: BEP without barriers survived this sweep; coalescing reordering is probabilistic")
	} else {
		t.Log(rep.String())
	}
}

func TestNVCacheNoBarriersConsistent(t *testing.T) {
	// NVCache closes the PoV/PoP gap with NVM cells, so barrier-free code
	// recovers, like BBB/eADR.
	rep := injectConfig(workload.NewLinkedList(), persistency.NVCache, true).Run()
	requireConsistent(t, rep, "NVCache")
}

func TestBBBProcSideAlsoConsistent(t *testing.T) {
	rep := injectConfig(workload.NewHashmap(), persistency.BBBProc, true).Run()
	requireConsistent(t, rep, "BBB proc-side")
}

func TestDrainBudgetBBBBounded(t *testing.T) {
	// The battery budget: bbPB entries + WPQ + store buffers. With 4 cores,
	// 32-entry bbPBs, a 32-entry WPQ and 32-entry SBs the drain can never
	// exceed 4*32 + 32 + 32 + 4*32 lines (WPQ waiters included).
	rep := injectConfig(workload.NewHashmap(), persistency.BBB, true).Run()
	limit := 4*32 + 32 + 32 + 4*32
	if rep.DrainedLinesMax > limit {
		t.Fatalf("BBB drained %d lines, exceeding the battery budget %d", rep.DrainedLinesMax, limit)
	}
	if rep.DrainedLinesMax == 0 {
		t.Fatal("no crash point drained anything")
	}
}

func TestCrashAtCycleZero(t *testing.T) {
	// A power failure before the first event: the durable image is exactly
	// what Setup wrote, which every checker must accept, and flush-on-fail
	// has nothing to drain.
	for _, s := range []persistency.Scheme{persistency.PMEM, persistency.BBB, persistency.BEP} {
		cc := injectConfig(workload.NewLinkedList(), s, true)
		cc.FirstCrash = 0
		cc.Points = 1
		rep := cc.Run()
		if w := rep.FirstWitness(); w != nil {
			t.Errorf("%v: pristine setup image inconsistent: %s", s, w.Err)
		}
		if rep.Points[0].Finished {
			t.Errorf("%v: nothing ran, yet the workload reports finished", s)
		}
		if rep.DrainedLinesMax != 0 {
			t.Errorf("%v: drained %d lines before any event executed", s, rep.DrainedLinesMax)
		}
	}
}

func TestCrashAfterWorkloadFinished(t *testing.T) {
	// The crash point lands after completion: the run finishes, every
	// store has long reached its domain, and the final image checks out.
	for _, s := range []persistency.Scheme{persistency.PMEM, persistency.BBB} {
		cc := injectConfig(workload.NewLinkedList(), s, s != persistency.PMEM)
		cc.Params.OpsPerThread = 40
		cc.FirstCrash = 50_000_000
		cc.Points = 1
		rep := cc.Run()
		p := rep.Points[0]
		if !p.Finished {
			t.Fatalf("%v: workload did not finish before cycle %d", s, cc.FirstCrash)
		}
		if p.ViolatingImages != 0 {
			t.Errorf("%v: completed run's image inconsistent: %s", s, p.Violations[0].Err)
		}
	}
}

func TestCrashMidForcedDrain(t *testing.T) {
	// Caches far smaller than the working set force LLC evictions of
	// bbPB-owned lines, so crashes land mid-forced-drain. Recovery must
	// still hold, and the flush-on-fail payload must stay within the
	// battery budget (per-core bbPBs + WPQ + waiters + store buffers)
	// while actually exercising the drain path.
	cc := injectConfig(workload.NewLinkedList(), persistency.BBB, true)
	cc.System.Hierarchy.L1Size = 512
	cc.System.Hierarchy.L2Size = 1024
	cc.Points = 16
	cc.Step = 3_000
	rep := cc.Run()
	requireConsistent(t, rep, "BBB mid-forced-drain")
	budget := 4*32 + 32 + 32 + 4*32
	if rep.DrainedLinesMax > budget {
		t.Fatalf("drained %d lines, exceeding the battery budget %d", rep.DrainedLinesMax, budget)
	}
	if rep.DrainedLinesMax == 0 {
		t.Fatal("no crash point caught in-flight lines; the sweep missed every forced drain")
	}
}

func TestReportString(t *testing.T) {
	rep := injectConfig(workload.NewLinkedList(), persistency.BBB, true).Run()
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
	if rep.FirstWitness() != nil {
		t.Fatal("unexpected failure present")
	}
}
