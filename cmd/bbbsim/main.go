// Command bbbsim runs workloads under persistency schemes on the simulated
// Table III machine and prints each run's statistics.
//
// The -workload and -scheme flags accept comma-separated lists; the cross
// product fans out across -parallel concurrent simulations and the result
// blocks print in (workload, scheme) order regardless of parallelism.
//
// Usage:
//
//	bbbsim -workload hashmap -scheme bbb -ops 1000
//	bbbsim -workload rtree -scheme pmem -no-barriers
//	bbbsim -workload mutateC -scheme bbb -entries 8 -verbose
//	bbbsim -workload rtree,hashmap -scheme pmem,eadr,bbb -parallel 8
//
// Campaign mode runs a checkpointed resumable sweep against a run ledger
// (see internal/obs): every completed point is recorded as it finishes, a
// killed campaign resumes where it stopped, and the final report is
// byte-identical to an uninterrupted run at any -parallel setting.
//
//	bbbsim -campaign frontier -ledger runs/
//	bbbsim -campaign frontier -ledger runs/ -max-points 6   # stop early...
//	bbbsim -campaign frontier -ledger runs/                 # ...and resume
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"bbb"
	"bbb/internal/obs"
	"bbb/internal/stats"
	"bbb/internal/sweep"
)

type combo struct {
	workload string
	scheme   bbb.Scheme
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bbbsim: ")
	var (
		wl         = flag.String("workload", "hashmap", "workload (comma-separated list fans out): "+strings.Join(bbb.Workloads(), ", ")+", linkedlist")
		scheme     = flag.String("scheme", "bbb", "persistency scheme (comma-separated list fans out): pmem, eadr, bbb, bbb-proc")
		ops        = flag.Int("ops", 1000, "operations per thread")
		threads    = flag.Int("threads", 8, "threads/cores")
		entries    = flag.Int("entries", 32, "bbPB entries per core")
		threshold  = flag.Float64("threshold", 0.75, "bbPB drain occupancy threshold")
		noBarriers = flag.Bool("no-barriers", false, "omit persist barriers (the Figure 2 variant)")
		clients    = flag.Int("clients", 0, "override -threads for the service-tier workloads (kv, kv/uniform)")
		window     = flag.Int64("batch-window", 0, "service-tier request-batching window in cycles (0 = workload default)")
		seed       = flag.Int64("seed", 1, "workload RNG seed")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulations for workload/scheme lists (1 = serial; output is identical either way)")
		verbose    = flag.Bool("verbose", false, "dump all component counters")
		traceN     = flag.Int("trace", 0, "dump the last N microarchitectural events after the run")
		traceOut   = flag.String("trace-out", "", "stream the full event trace as JSON lines to this file (see cmd/bbbtrace)")
		check      = flag.Bool("check", false, "audit coherence and bbPB invariants every 1000 cycles (see internal/invariant)")
		compiled   = flag.Bool("compiled", false, "run workloads through the compiled IR interpreter instead of the cpu.Env drivers (identical results; see internal/ir)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the simulations to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile taken after the simulations to this file")

		campaign   = flag.String("campaign", "", "run a ledger-backed resumable campaign instead of single simulations (frontier)")
		ledgerDir  = flag.String("ledger", "", "run-ledger directory for -campaign (required; the checkpoint store)")
		maxPoints  = flag.Int("max-points", 0, "stop the campaign after N fresh points (0 = run to completion); re-run to resume")
		gridEnt    = flag.String("grid-entries", "", "frontier campaign bbPB sizes, comma-separated (default 8,16,32,64)")
		gridThresh = flag.String("grid-thresholds", "", "frontier campaign drain thresholds, comma-separated (default 0.25,0.5,0.75)")
		budgets    = flag.String("budgets-mm3", "", "frontier battery volumes in mm^3, comma-separated (default 1,5,20,100)")
		tech       = flag.String("tech", "supercap", "frontier battery technology: supercap or li-thin")
		platform   = flag.String("platform", "mobile", "frontier drain pricing platform: mobile or server")
	)
	flag.Parse()

	if *campaign != "" {
		runCampaign(*campaign, campaignConfig{
			ledgerDir: *ledgerDir, maxPoints: *maxPoints,
			gridEntries: *gridEnt, gridThresholds: *gridThresh,
			budgets: *budgets, tech: *tech, platform: *platform,
			workload: *wl,
		}, bbb.Options{
			Threads:      *threads,
			OpsPerThread: *ops,
			NoBarriers:   *noBarriers,
			Seed:         *seed,
			Clients:      *clients,
			BatchWindow:  bbb.Cycle(*window),
			Parallelism:  *parallel,
		})
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				log.Fatal(err)
			}
		}()
	}

	workloads := strings.Split(*wl, ",")
	var combos []combo
	for _, w := range workloads {
		for _, name := range strings.Split(*scheme, ",") {
			s, err := bbb.ParseScheme(strings.TrimSpace(name))
			if err != nil {
				log.Fatal(err)
			}
			combos = append(combos, combo{strings.TrimSpace(w), s})
		}
	}

	o := bbb.Options{
		Threads:        *threads,
		OpsPerThread:   *ops,
		BBPBEntries:    *entries,
		DrainThreshold: *threshold,
		NoBarriers:     *noBarriers,
		Seed:           *seed,
		Clients:        *clients,
		BatchWindow:    bbb.Cycle(*window),
	}

	if *check || *traceN > 0 || *traceOut != "" {
		if *compiled {
			log.Fatal("-compiled cannot combine with -check, -trace or -trace-out (those harnesses drive the cpu.Env path)")
		}
		if len(combos) > 1 {
			log.Fatal("-check, -trace and -trace-out need a single workload/scheme combination")
		}
		exclusive := 0
		for _, on := range []bool{*check, *traceN > 0, *traceOut != ""} {
			if on {
				exclusive++
			}
		}
		if exclusive > 1 {
			log.Fatal("-check, -trace and -trace-out are mutually exclusive")
		}
		c := combos[0]
		var (
			res bbb.Result
			err error
		)
		switch {
		case *check:
			res, err = bbb.RunChecked(c.workload, c.scheme, o, 0)
		case *traceOut != "":
			var f *os.File
			f, err = os.Create(*traceOut)
			if err != nil {
				log.Fatal(err)
			}
			res, err = bbb.RunStreaming(c.workload, c.scheme, o, f)
			if err == nil {
				err = f.Close()
			}
		default:
			o.TraceCapacity = *traceN
			fmt.Printf("--- last %d microarchitectural events ---\n", *traceN)
			res, err = bbb.RunTraced(c.workload, c.scheme, o, os.Stdout)
			fmt.Println("---")
		}
		if err != nil {
			log.Fatal(err)
		}
		printResult(c, o, res, *verbose)
		return
	}

	type outcome struct {
		res bbb.Result
		err error
	}
	run := bbb.Run
	if *compiled {
		run = bbb.RunCompiled
	}
	results := sweep.Map(*parallel, len(combos), func(i int) outcome {
		r, err := run(combos[i].workload, combos[i].scheme, o)
		return outcome{r, err}
	})
	for i, out := range results {
		if out.err != nil {
			log.Fatal(out.err)
		}
		if i > 0 {
			fmt.Println()
		}
		printResult(combos[i], o, out.res, *verbose)
	}
}

type campaignConfig struct {
	ledgerDir      string
	maxPoints      int
	gridEntries    string
	gridThresholds string
	budgets        string
	tech           string
	platform       string
	workload       string
}

// runCampaign drives a resumable sweep. The deterministic report goes to
// stdout (two completed runs compare with cmp); progress and resume notes
// go to stderr via log.
func runCampaign(name string, cc campaignConfig, o bbb.Options) {
	if cc.ledgerDir == "" {
		log.Fatal("-campaign needs -ledger (the checkpoint directory)")
	}
	if strings.Contains(cc.workload, ",") {
		log.Fatal("-campaign sweeps its own grid; give a single -workload")
	}
	ledger, err := obs.Open(cc.ledgerDir)
	if err != nil {
		log.Fatal(err)
	}
	switch name {
	case "frontier":
		res, err := bbb.RunFrontierCampaign(o, bbb.FrontierConfig{
			Workload:   cc.workload,
			Entries:    parseInts(cc.gridEntries),
			Thresholds: parseFloats(cc.gridThresholds),
			BudgetsMM3: parseFloats(cc.budgets),
			Tech:       cc.tech,
			Platform:   cc.platform,
			MaxPoints:  cc.maxPoints,
			Ledger:     ledger,
			Host:       hostInfo(),
			Clock:      func() int64 { return time.Now().UnixNano() },
			Progress:   os.Stderr,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(res.Report())
	default:
		log.Fatalf("unknown campaign %q (want frontier)", name)
	}
}

// hostInfo captures machine provenance for ledger host stamps. This lives
// in cmd (not internal/obs) on purpose: detlint keeps wall-clock and
// host-environment probes out of the internal packages.
func hostInfo() *obs.HostInfo {
	host, _ := os.Hostname()
	return &obs.HostInfo{
		Hostname: host,
		GOOS:     runtime.GOOS,
		GOARCH:   runtime.GOARCH,
		CPUs:     runtime.NumCPU(),
		UnixNS:   time.Now().UnixNano(),
	}
}

func parseInts(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			log.Fatalf("bad integer list %q: %v", s, err)
		}
		out = append(out, v)
	}
	return out
}

func parseFloats(s string) []float64 {
	if s == "" {
		return nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			log.Fatalf("bad number list %q: %v", s, err)
		}
		out = append(out, v)
	}
	return out
}

func printResult(c combo, o bbb.Options, res bbb.Result, verbose bool) {
	threads := o.Threads
	if o.Clients > 0 {
		threads = o.Clients
	}
	fmt.Printf("workload            %s (%d threads x %d ops)\n", c.workload, threads, o.OpsPerThread)
	fmt.Printf("scheme              %s\n", c.scheme)
	fmt.Printf("execution cycles    %d (%.3f ms at 2 GHz)\n", res.Cycles, float64(res.Cycles)/2e6)
	fmt.Printf("stores              %d (%d persisting, %.1f%%)\n",
		res.Stores, res.PersistingStores, 100*float64(res.PersistingStores)/float64(res.Stores))
	fmt.Printf("loads               %d\n", res.Loads)
	fmt.Printf("NVMM writes         %d\n", res.NVMMWrites)
	fmt.Printf("bbPB rejections     %d\n", res.Rejections)
	fmt.Printf("bbPB drains         %d (%d forced by LLC inclusion)\n", res.Drains, res.ForcedDrains)
	fmt.Printf("skipped writebacks  %d\n", res.SkippedWritebacks)
	fmt.Printf("SB stall cycles     %d\n", res.StallCycles)
	fmt.Printf("dirty cache lines   %.1f%% (paper assumes 44.9%% for eADR estimates)\n", 100*res.DirtyFraction)
	if res.Metrics != nil {
		fmt.Printf("durability          %s\n", res.DurabilitySummary())
		fmt.Printf("provenance          %d stores resolved durable, %d never observed durable\n",
			res.Counters.Get("persist.resolved_stores"), res.Counters.Get("persist.unresolved_stores"))
	}
	if verbose {
		fmt.Println("\ncomponent counters:")
		fmt.Fprint(os.Stdout, res.Counters.StringWith(stats.Glossary))
		if res.Metrics != nil {
			fmt.Println("\nhistograms and gauges:")
			fmt.Fprint(os.Stdout, res.Metrics.StringWith(stats.Glossary))
		}
	}
}
