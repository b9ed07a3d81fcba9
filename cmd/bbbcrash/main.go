// Command bbbcrash runs crash-injection campaigns, mechanizing the paper's
// programmability argument (§II-A, Figures 2 and 3): it crashes a workload
// at a sweep of cycles, performs the scheme's flush-on-fail, and runs the
// workload's recovery checker against the durable NVMM image. Each
// campaign is the crash-image model checker bounded to that one image
// (bbb.CrashCampaign); bbbmc explores every reachable image.
//
// Inconsistency is only acceptable where the scheme never promised
// recovery (PMEM or BEP with the barriers omitted — the Figure 2 bug).
// A consistency-guaranteeing combination that reports an inconsistent
// image is a simulator bug, and bbbcrash exits non-zero.
//
// Usage:
//
//	bbbcrash                              # the full Figures 2/3 matrix
//	bbbcrash -workload hashmap -points 40 # one workload, denser sweep
//	bbbcrash -quiet                       # one summary line per campaign
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"bbb"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bbbcrash: ")
	var (
		wl       = flag.String("workload", "", "workload to crash (default: linkedlist matrix over all schemes)")
		scheme   = flag.String("scheme", "", "scheme to test (default: all)")
		points   = flag.Int("points", 20, "number of crash points")
		first    = flag.Uint64("first", 5_000, "first crash cycle")
		step     = flag.Uint64("step", 10_000, "cycles between crash points")
		ops      = flag.Int("ops", 400, "operations per thread")
		threads  = flag.Int("threads", 4, "threads/cores")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent crash points per campaign (1 = serial; reports are identical either way)")
		quiet    = flag.Bool("quiet", false, "suppress per-campaign detail; print only the summary and failures")
		traceOut = flag.String("trace-out", "", "trace ONE crash (at -first, single -workload/-scheme) as JSON lines to this file instead of sweeping")
	)
	flag.Parse()

	if *traceOut != "" {
		if *wl == "" || *scheme == "" {
			log.Fatal("-trace-out needs explicit -workload and -scheme")
		}
		s, err := bbb.ParseScheme(*scheme)
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		o := bbb.Options{Threads: *threads, OpsPerThread: *ops, L1Size: 1024, L2Size: 4096}
		res, err := bbb.CrashTraced(*wl, s, o, bbb.Cycle(*first), f)
		if err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("traced crash of %s/%s at cycle %d to %s\n", *wl, s, *first, *traceOut)
		fmt.Println(res.DurabilitySummary())
		fmt.Printf("resolved stores     %d (crash-drain resolutions included)\n", res.Counters.Get("persist.resolved_stores"))
		fmt.Printf("unresolved stores   %d (visible but never durable: lost at the crash)\n", res.Counters.Get("persist.unresolved_stores"))
		return
	}

	type cell struct {
		scheme     bbb.Scheme
		noBarriers bool
	}
	var cells []cell
	if *scheme == "" {
		cells = []cell{
			{bbb.SchemePMEM, false}, // Figure 3: barriers present
			{bbb.SchemePMEM, true},  // Figure 2: the bug
			{bbb.SchemeEADR, true},
			{bbb.SchemeBBB, true}, // the paper's claim: no barriers needed
			{bbb.SchemeBBBProc, true},
			{bbb.SchemeBEP, false}, // epoch barriers keep a prefix durable
			{bbb.SchemeBEP, true},  // ...but same-epoch coalescing reorders
			{bbb.SchemeNVCache, true},
		}
	} else {
		s, err := bbb.ParseScheme(*scheme)
		if err != nil {
			log.Fatal(err)
		}
		cells = []cell{{s, false}, {s, true}}
	}
	workloads := []string{"linkedlist"}
	if *wl != "" {
		workloads = []string{*wl}
	}

	if !*quiet {
		fmt.Printf("crash-injection campaign: %d points from cycle %d, step %d\n\n", *points, *first, *step)
	}
	campaigns, unexpected := 0, 0
	for _, w := range workloads {
		for _, c := range cells {
			o := bbb.Options{
				Threads:      *threads,
				OpsPerThread: *ops,
				NoBarriers:   c.noBarriers,
				Parallelism:  *parallel,
				// Small caches reorder persists aggressively, making the
				// PMEM/no-barrier bug easy to expose.
				L1Size: 1024,
				L2Size: 4096,
			}
			rep, err := bbb.CrashCampaign(w, c.scheme, o, *points, bbb.Cycle(*first), bbb.Cycle(*step))
			if err != nil {
				log.Fatal(err)
			}
			campaigns++
			first := rep.FirstWitness()
			broken := rep.TotalViolating > 0 && bbb.GuaranteesConsistency(c.scheme, !c.noBarriers)
			if broken {
				unexpected++
			}
			if !*quiet {
				mode := "with barriers"
				if c.noBarriers {
					mode = "NO barriers"
				}
				fmt.Printf("%-10s %-9s %-13s crash points: %3d  inconsistent: %3d  max drained lines: %d\n",
					w, c.scheme, mode, len(rep.Points), rep.TotalViolating, rep.DrainedLinesMax)
				if first != nil {
					fmt.Printf("    first failure @%d: %s\n", first.CrashCycle, first.Err)
				}
			}
			if broken {
				fmt.Printf("FAIL: %s/%s guarantees consistency but %d crash point(s) were inconsistent (first @%d: %s)\n",
					w, c.scheme, rep.TotalViolating, first.CrashCycle, first.Err)
			}
		}
		if !*quiet {
			fmt.Println()
		}
	}
	if unexpected > 0 {
		fmt.Printf("FAIL: %d of %d campaigns broke a consistency guarantee\n", unexpected, campaigns)
		os.Exit(1)
	}
	if *quiet {
		fmt.Printf("ok: %d campaigns; every consistency-guaranteeing scheme recovered at every crash point\n", campaigns)
	} else {
		fmt.Println("expected: the pmem/NO-barriers and bep/NO-barriers rows are inconsistent")
		fmt.Println("(the Figure 2 bug, and its epoch-coalescing variant in traditional volatile")
		fmt.Println("persist buffers); BBB recovers at every crash point with zero barriers.")
	}
}
