package crashmc

import (
	"testing"

	"bbb/internal/persistency"
	"bbb/internal/system"
	"bbb/internal/workload"
)

// BenchmarkCrashMCEnumerate measures enumeration throughput over a real
// captured pending set (PMEM, no barriers — the largest reachable space
// of the acceptance matrix). `make bench-json` records images/s in the
// BENCH_<n>.json trail.
func BenchmarkCrashMCEnumerate(b *testing.B) {
	c := mcConfig(workload.NewLinkedList(), persistency.PMEM, true)
	const crashAt = 16_000
	sys, finished := workload.BuildToCrash(c.Workload, c.Scheme, c.System, c.Params, crashAt)
	rec := Capture(sys, crashAt, finished)
	if len(rec.Pending) == 0 {
		b.Fatal("no pending writes captured; the benchmark would enumerate nothing")
	}
	bounds := DefaultBounds()
	images := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enum := Enumerate(rec, bounds)
		images += len(enum.Images)
	}
	b.ReportMetric(float64(images)/b.Elapsed().Seconds(), "images/s")
}

// BenchmarkCrashMCCheck measures the validation layer on its own: the
// apply-overlay / recovery-check / revert loop of checkPoint over every
// distinct image of a captured hashmap enumeration — barrier-free PMEM on
// the full-size 2-core machine, 112 pending writes, 4096 images — with
// capture and enumeration outside the timer. `make bench-json` records
// its images/s.
func BenchmarkCrashMCCheck(b *testing.B) {
	w := workload.NewHashmap()
	p := workload.Params{Threads: 2, OpsPerThread: 150, Seed: 1, NoBarriers: true}
	const crashAt = 60_000
	sys, finished := workload.BuildToCrash(w, persistency.PMEM, system.DefaultConfig(persistency.PMEM), p, crashAt)
	rec := Capture(sys, crashAt, finished)
	enum := Enumerate(rec, DefaultBounds())
	if len(enum.Images) < 2 {
		b.Fatalf("%d images captured; the benchmark would check almost nothing", len(enum.Images))
	}
	scratch := rec.Base.Clone()
	images := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, img := range enum.Images {
			ApplyOverlay(scratch, img.Overlay)
			_ = w.Check(scratch) // the verdicts are pinned by the golden tests; only the time counts here
			RevertOverlay(scratch, rec.Base, img.Overlay)
		}
		images += len(enum.Images)
	}
	b.ReportMetric(float64(images)/b.Elapsed().Seconds(), "images/s")
}
