// Command perfbench is the repository's benchmark. It drives the simulator
// from outside through its public functions, one simulation at a time
// (closed loop, one run in flight), checks every output, and prints each
// metric by name with its unit; the last line of standard output is one
// JSON object {correct, attempted, failed, metrics}.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fig7 --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	fig7   the Fig. 7 matrix: 7 Table IV workloads x {eADR, BBB-32, BBB-1024}
//	kv     the KV service tier under PMEM, eADR and BBB with 8 clients
//	crash  crash-image model checking over hashmap: barrier-free PMEM and BBB
//
// With --trace 0 the run repeats whole passes of the workload for the
// given seconds and reports the end-to-end metrics as medians over passes.
// With --trace 1 it alternates untraced and traced passes: spans around
// every public call, an Env decorator counting and timing every program
// request, and a CPU profile folded per simulator package give the
// per-layer metrics, and the traced passes' simulated results must equal
// the untraced ones byte for byte.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"bbb/internal/stats"
)

// devSeed is the development seed: digests.json records every operation's
// simulated result for it. heldOutSeed was never used while the benchmark
// was written; check a claimed gain on it too.
const (
	devSeed     = 1
	heldOutSeed = 1009
)

//go:embed digests.json
var recordedDigests []byte

// closureTolerancePct bounds how far a traced pass's span self-times may
// sum from its wall-clock.
const closureTolerancePct = 1.0

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "fig7, kv or crash")
		seed    = fs.Int64("seed", devSeed, "workload seed; the program receives only the inputs made from it")
		secs    = fs.Int("seconds", 10, "how long to measure")
		traceOn = fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		outDir  = fs.String("out-dir", ".bench_build", "directory the traced run writes its spans to")
		record  = fs.String("record", "", "write the development seed's digests to this file instead of checking them")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *secs < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	tasks, err := buildTasks(*name, *seed, defaultSizes)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	b := &bench{name: *name, seed: *seed, tasks: tasks, out: stdout, errOut: stderr}
	if *record != "" {
		if *seed != devSeed {
			fmt.Fprintf(stderr, "perfbench: digests are recorded for seed %d only\n", devSeed)
			return 2
		}
	} else if *seed == devSeed {
		var all map[string]string
		if err := json.Unmarshal(recordedDigests, &all); err != nil {
			fmt.Fprintln(stderr, "perfbench: digests.json:", err)
			return 1
		}
		b.want = all
	}
	fmt.Fprintf(stdout, "perfbench %s: host %s held-out-seed=%d\n", *name, hostKey(*seed), heldOutSeed)

	budget := time.Duration(*secs) * time.Second
	var res result
	if *traceOn == 1 {
		res, err = b.traced(budget, *outDir)
	} else {
		res, err = b.untraced(budget)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *record != "" {
		if err := b.writeDigests(*record); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// bench runs passes of one workload and judges their outputs.
type bench struct {
	name   string
	seed   int64
	tasks  []task
	want   map[string]string // recorded digests (development seed only)
	first  []string          // the first pass's digests, which every later pass must repeat
	out    io.Writer
	errOut io.Writer

	attempted, failed int
	reported          int
}

// pass is one execution of every task of the workload.
type pass struct {
	wall, build time.Duration
	outcomes    []outcome
	mem         hostMem
	rss         float64 // peak resident set during the pass, MB
	env         envTotals
	self        map[string]time.Duration // traced passes only
}

func (p *pass) sum(f func(o outcome) uint64) uint64 {
	var n uint64
	for _, o := range p.outcomes {
		if o.err == nil {
			n += f(o)
		}
	}
	return n
}

// run executes one pass with r and judges every outcome: a task fails if
// it panicked, failed an output check, or its simulated result differs
// from the recorded digest or from the first pass.
func (b *bench) run(r *runner) (*pass, error) {
	// Start every pass from a collected heap returned to the OS, so its
	// peak resident set is its own.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	r.built = 0
	if r.env != nil {
		*r.env = envTotals{}
	}
	memBefore := readHostMem()
	start := time.Now()
	root := -1
	if r.tr != nil {
		root = r.tr.open("pass", -1)
	}
	p := &pass{}
	for i, t := range b.tasks {
		p.outcomes = append(p.outcomes, r.runTask(t, i))
	}
	if r.tr != nil {
		r.tr.close(root)
	}
	p.wall = time.Since(start)
	p.mem = readHostMem().sub(memBefore)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	p.rss = rss
	p.build = r.built
	if r.env != nil {
		p.env = *r.env
	}
	if r.tr != nil {
		p.self = r.tr.selfTimes(r.tr.pass)
		r.tr.pass++
	}
	for i := range p.outcomes {
		b.judge(i, &p.outcomes[i])
	}
	if b.first == nil {
		b.first = make([]string, len(p.outcomes))
		for i, o := range p.outcomes {
			b.first[i] = o.digest
		}
	}
	return p, nil
}

func (b *bench) judge(i int, o *outcome) {
	key := b.tasks[i].key
	switch {
	case o.err != nil:
	case b.want != nil && b.want[key] != o.digest:
		o.err = fmt.Errorf("simulated result digest %.12s differs from the recorded %.12s", o.digest, b.want[key])
	case b.first != nil && b.first[i] != o.digest:
		o.err = fmt.Errorf("simulated result differs from the first pass's")
	}
	b.attempted++
	if o.err != nil {
		b.failed++
		if b.reported < 5 {
			b.reported++
			fmt.Fprintf(b.errOut, "perfbench: %s failed: %v\n", key, o.err)
		}
	}
}

func (b *bench) writeDigests(path string) error {
	all := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for i, t := range b.tasks {
		all[t.key] = b.first[i]
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// untraced measures the end-to-end metrics: whole passes until the budget
// is spent, at least three, reported as medians.
func (b *bench) untraced(budget time.Duration) (result, error) {
	r := &runner{}
	var passes []*pass
	start := time.Now()
	var rss []float64
	for len(passes) < 3 || time.Since(start) < budget {
		p, err := b.run(r)
		if err != nil {
			return result{}, err
		}
		passes = append(passes, p)
		rss = append(rss, p.rss)
	}
	run, setup := steady(passes)
	vals := map[string]float64{
		"setup_s":       setup,
		"sim_ops_per_s": float64(passes[0].sum(func(o outcome) uint64 { return o.simOps })) / run,
		"peak_rss_mb":   median(rss),
	}
	note := fmt.Sprintf("sum over tasks of each task's median over %d passes", len(passes))
	b.line("setup_s", setup, "s", "host time in workload.Build, "+note)
	b.line("sim_ops_per_s", vals["sim_ops_per_s"], "1/s", "simulated loads+stores per host second outside workload.Build, "+note)
	b.line("peak_rss_mb", vals["peak_rss_mb"], "MB", fmt.Sprintf("peak resident set of the process during a pass, median of %d passes", len(passes)))
	b.workloadLines(passes, run, note)
	b.line("error_rate", float64(b.failed)/float64(b.attempted), "ratio", fmt.Sprintf("%d failed of %d operations", b.failed, b.attempted))

	m, err := fill(endToEnd, vals)
	if err != nil {
		return result{}, err
	}
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

// workloadLines prints the workload's own end-to-end metrics: its headline
// throughput and the simulated results, beside the paper's values.
func (b *bench) workloadLines(passes []*pass, run float64, note string) {
	p := passes[0]
	rate := func(f func(o outcome) uint64) float64 { return float64(p.sum(f)) / run }
	switch b.name {
	case "fig7":
		exec, writes := fig7Overheads(b.tasks, p.outcomes)
		b.line("bbb_exec_overhead_pct", exec, "%", fmt.Sprintf("geomean BBB-32/eADR cycles - 1 over 7 workloads; paper ~1, model error %+.2f points", exec-1))
		b.line("bbb_write_overhead_pct", writes, "%", fmt.Sprintf("geomean BBB-32/eADR NVMM writes - 1; paper +4.9, model error %+.2f points", writes-4.9))
		fmt.Fprintln(b.out, "  the model is unvalidated beyond the paper's Fig. 7 figures quoted above")
	case "kv":
		b.line("sim_reqs_per_s", rate(func(o outcome) uint64 { return o.reqs }), "1/s", "simulated KV requests per host second outside workload.Build, "+note)
		if h := kvLatency(findOutcome(b.tasks, p.outcomes, "kv/bbb").res); h != nil {
			b.line("kv_p50_cycles", h.P50(), "cycles", fmt.Sprintf("BBB request latency, %d samples", h.Count()))
			b.line("kv_p99_cycles", h.P99(), "cycles", fmt.Sprintf("BBB request latency, %d samples", h.Count()))
		}
	case "crash":
		b.line("images_per_s", rate(func(o outcome) uint64 { return uint64(o.images) }), "1/s", "distinct crash images checked per host second outside workload.Build, "+note)
	}
}

func findOutcome(ts []task, outs []outcome, key string) outcome {
	for i, t := range ts {
		if t.key == key && i < len(outs) {
			return outs[i]
		}
	}
	return outcome{}
}

// fig7Overheads returns BBB-32's geomean execution-time and NVMM-write
// overheads over eADR, in percent.
func fig7Overheads(ts []task, outs []outcome) (exec, writes float64) {
	var execs, ws []float64
	for i, t := range ts {
		rest, ok := strings.CutSuffix(t.key, "/bbb-32")
		if !ok || outs[i].err != nil {
			continue
		}
		base := findOutcome(ts, outs, rest+"/eadr")
		if base.err != nil || base.res.Cycles == 0 {
			continue
		}
		execs = append(execs, stats.Ratio(float64(outs[i].res.Cycles), float64(base.res.Cycles)))
		ws = append(ws, stats.Ratio(float64(outs[i].res.NVMMWrites), float64(base.res.NVMMWrites)))
	}
	return 100 * (stats.Geomean(execs) - 1), 100 * (stats.Geomean(ws) - 1)
}

func (b *bench) line(name string, v float64, unit, note string) {
	fmt.Fprintf(b.out, "  %-24s %16.6g %-7s %s\n", name, v, unit, note)
}

// steady sums, over the tasks of a pass, each task's median over passes
// of its host time outside workload.Build and inside it. A noise burst on
// the host slows a few tasks of one pass; per-task medians drop it where
// a median of pass totals would not.
func steady(passes []*pass) (run, build float64) {
	for i := range passes[0].outcomes {
		var rs, bs []float64
		for _, p := range passes {
			o := p.outcomes[i]
			rs = append(rs, (o.wall - o.build).Seconds())
			bs = append(bs, o.build.Seconds())
		}
		run += median(rs)
		build += median(bs)
	}
	return run, build
}

// traced alternates untraced and traced passes until the budget is spent
// (at least one of each), and reports the per-layer metrics.
func (b *bench) traced(budget time.Duration, outDir string) (result, error) {
	plain := &runner{}
	tr := newTracer()
	traced := &runner{tr: tr, env: &envTotals{}}
	var untracedPasses, tracedPasses []*pass
	var untracedDigests []string
	layers := map[string]int64{}
	samples := 0
	consistent := true
	start := time.Now()
	for len(tracedPasses) == 0 || time.Since(start) < budget {
		u, err := b.run(plain)
		if err != nil {
			return result{}, err
		}
		untracedPasses = append(untracedPasses, u)
		if untracedDigests == nil {
			for _, o := range u.outcomes {
				untracedDigests = append(untracedDigests, o.digest)
			}
		}
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return result{}, fmt.Errorf("cpu profile: %w", err)
		}
		t, err := b.run(traced)
		pprof.StopCPUProfile()
		if err != nil {
			return result{}, err
		}
		tracedPasses = append(tracedPasses, t)
		n, err := foldProfile(prof.Bytes(), layers)
		if err != nil {
			return result{}, err
		}
		samples += n
		for i, o := range t.outcomes {
			if o.digest != untracedDigests[i] {
				consistent = false
				fmt.Fprintf(b.errOut, "perfbench: %s: traced result differs from the untraced one\n", b.tasks[i].key)
			}
		}
	}
	vals, closureOK := b.layerValues(untracedPasses, tracedPasses, layers, samples)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	spans := filepath.Join(outDir, fmt.Sprintf("perfbench-spans-%s-seed%d.jsonl", b.name, b.seed))
	if err := tr.write(spans, hostKey(b.seed)); err != nil {
		return result{}, err
	}
	fmt.Fprintf(b.out, "  spans: %s (%d spans)\n", spans, len(tr.spans))
	if !consistent {
		fmt.Fprintln(b.out, "  observation perturbed the simulation: traced results differ from untraced")
	}
	m, err := fill(perLayer, vals)
	if err != nil {
		return result{}, err
	}
	return result{Correct: b.failed == 0 && consistent && closureOK, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

// layerValues computes the per-layer metrics: counts from the first traced
// pass (they repeat exactly), times as medians over traced passes, host
// allocation from the untraced passes, which the decorator does not touch.
func (b *bench) layerValues(untraced, traced []*pass, layers map[string]int64, samples int) (map[string]float64, bool) {
	v := map[string]float64{}
	t0 := traced[0]
	med := func(f func(p *pass) float64, ps []*pass) float64 {
		var xs []float64
		for _, p := range ps {
			xs = append(xs, f(p))
		}
		return median(xs)
	}
	selfOf := func(names ...string) func(p *pass) float64 {
		return func(p *pass) float64 {
			var d time.Duration
			for _, n := range names {
				d += p.self[n]
			}
			return d.Seconds()
		}
	}
	v["workload.build_s"] = med(selfOf("workload.Build"), traced)
	v["system.run_s"] = med(selfOf("system.Run", "system.RunUntil"), traced)
	v["workload.program_s"] = med(func(p *pass) float64 { return p.env.prog.Seconds() }, traced)
	v["workload.check_s"] = med(selfOf("system.Crash", "workload.Check"), traced)
	v["stats.fold_s"] = med(selfOf("workload.FoldServiceMetrics"), traced)
	v["crashmc.capture_s"] = med(selfOf("crashmc.Capture"), traced)
	v["crashmc.enumerate_s"] = med(selfOf("crashmc.Enumerate"), traced)
	v["crashmc.check_s"] = med(selfOf("crashmc.Check"), traced)
	v["memory.clone_s"] = med(selfOf("memory.Clone"), traced)

	v["cpu.env_calls"] = float64(t0.env.calls)
	// An Env call costs the program the engine's simulation of the
	// request plus the handoff: everything in System.Run the programs
	// themselves did not run.
	v["cpu.env_ns_per_call"] = med(func(p *pass) float64 {
		run := selfOf("system.Run", "system.RunUntil")(p)
		return 1e9 * ratio(run-p.env.prog.Seconds(), float64(p.env.calls))
	}, traced)
	events := t0.sum(func(o outcome) uint64 { return o.events })
	v["engine.events"] = float64(events)
	v["engine.ns_per_event"] = 1e9 * ratio(v["system.run_s"], float64(events))

	counters := stats.NewCounters()
	merged := stats.NewMetrics()
	var sets, images uint64
	for _, o := range t0.outcomes {
		if o.err != nil {
			continue
		}
		counters.Merge(o.counters)
		merged.Merge(o.res.Metrics)
		sets += uint64(o.sets)
		images += uint64(o.images)
	}
	for _, n := range []string{
		"core.loads", "core.stores", "core.sb_full_stalls", "core.clwbs", "core.fences",
		"l1.load_hits", "l1.load_misses", "l1.store_misses", "l2.misses", "l1.invalidations", "l2.writebacks_skipped",
		"bbpb.allocations", "bbpb.coalesced", "bbpb.drains", "bbpb.rejections", "bbpb.forced_drains", "bbpb.migrated_out",
		"nvmm.writes", "nvmm.wpq_full_stalls", "nvmm.wpq_coalesced",
	} {
		v[n] = float64(counters.Get(n))
	}
	// A persisting store either coalesces into a live entry, allocates
	// one, or is rejected and retried; coalescing is the useful outcome.
	v["bbpb.coalesce_ratio"] = ratio(v["bbpb.coalesced"], v["bbpb.coalesced"]+v["bbpb.allocations"]+v["bbpb.rejections"])
	v["kv.batch_size.mean"], v["kv.queue_delay.p50"] = 0, 0
	if h := merged.Hist("kv.batch_size"); h != nil {
		v["kv.batch_size.mean"] = h.Mean()
	}
	if h := merged.Hist("kv.queue_delay"); h != nil {
		v["kv.queue_delay.p50"] = h.P50()
	}
	v["crashmc.check_calls"] = float64(images) // one Workload.Check per distinct image
	v["crashmc.sets"] = float64(sets)
	v["crashmc.images"] = float64(images)
	v["crashmc.images_per_set"] = ratio(float64(images), float64(sets))

	v["host.alloc_mb"] = med(func(p *pass) float64 { return p.mem.allocBytes / (1 << 20) }, untraced)
	v["host.mallocs"] = med(func(p *pass) float64 { return p.mem.mallocs }, untraced)
	v["host.gc_cpu_s"] = med(func(p *pass) float64 { return p.mem.gcCPU }, untraced)
	v["trace.extra_mallocs"] = med(func(p *pass) float64 { return p.mem.mallocs }, traced) - v["host.mallocs"]

	var total int64
	for _, ns := range layers {
		total += ns
	}
	for _, l := range profileLayers {
		v["host_pct."+l] = 100 * ratio(float64(layers[l]), float64(total))
	}
	v["profile.samples"] = float64(samples)

	wallU := med(func(p *pass) float64 { return p.wall.Seconds() }, untraced)
	wallT := med(func(p *pass) float64 { return p.wall.Seconds() }, traced)
	v["trace.overhead_s"] = wallT - wallU
	v["attr.bench_s"] = med(selfOf("pass", "task"), traced)
	worst := 0.0
	for _, p := range traced {
		var sum time.Duration
		for _, d := range p.self {
			sum += d
		}
		worst = max(worst, 100*ratio(math.Abs((p.wall-sum).Seconds()), p.wall.Seconds()))
	}
	v["attr.closure_err_pct"] = worst

	for _, m := range perLayer {
		b.line(m.name, v[m.name], m.unit, "")
	}
	b.attribution(traced[0], v, wallU, wallT)
	return v, worst <= closureTolerancePct
}

// attribution prints the traced split of one pass: each span name's self
// time, the benchmark's own share, whether the self-times close on the
// wall-clock, and whether the split matches the workload's rationale.
func (b *bench) attribution(p *pass, v map[string]float64, wallU, wallT float64) {
	fmt.Fprintf(b.out, "  traced pass %.3f s, untraced %.3f s: tracing overhead %+.3f s\n", wallT, wallU, wallT-wallU)
	names := make([]string, 0, len(p.self))
	for n := range p.self {
		names = append(names, n)
	}
	sort.Strings(names)
	var sum time.Duration
	for _, n := range names {
		sum += p.self[n]
		label := n
		if n == "pass" || n == "task" {
			label = n + " (benchmark's own)"
		}
		fmt.Fprintf(b.out, "    self %-36s %9.4f s %5.1f%%\n", label, p.self[n].Seconds(), 100*ratio(p.self[n].Seconds(), p.wall.Seconds()))
	}
	fmt.Fprintf(b.out, "    sum of self-times %.4f s of wall %.4f s (closure within %.1f%% required, worst pass %.3f%%)\n",
		sum.Seconds(), p.wall.Seconds(), closureTolerancePct, v["attr.closure_err_pct"])
	switch b.name {
	case "fig7":
		handoff := v["host_pct.cpu"] + v["host_pct.runtime.sched"]
		envShare := 100 * ratio(v["cpu.env_ns_per_call"]*v["cpu.env_calls"]/1e9, v["system.run_s"])
		fmt.Fprintf(b.out, "  rationale (handoff-bound): host_pct.cpu + host_pct.runtime.sched = %.1f%% of CPU samples; cpu.env_ns_per_call x cpu.env_calls = %.1f%% of system.run_s: %s\n",
			handoff, envShare, verdict(handoff >= 50))
	case "kv":
		lps := ratio(v["core.loads"], v["core.stores"])
		fmt.Fprintf(b.out, "  rationale (load-heavy, PMEM clwb path): %.2f loads per store, %.0f clwbs, %.0f WPQ coalesces: %s\n",
			lps, v["core.clwbs"], v["nvmm.wpq_coalesced"], verdict(lps > 1 && v["core.clwbs"] > 0))
	case "crash":
		share := 100 * ratio(v["crashmc.check_s"]+v["crashmc.enumerate_s"], p.wall.Seconds())
		fmt.Fprintf(b.out, "  rationale (check- and enumeration-bound): crashmc.check_s + crashmc.enumerate_s = %.1f%% of the pass: %s\n",
			share, verdict(share >= 50))
	}
}

func verdict(ok bool) string {
	if ok {
		return "confirmed"
	}
	return "NOT confirmed"
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
