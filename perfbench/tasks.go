package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"bbb/internal/crashmc"
	"bbb/internal/engine"
	"bbb/internal/memory"
	"bbb/internal/persistency"
	"bbb/internal/stats"
	"bbb/internal/system"
	"bbb/internal/workload"

	// Registers the kv service tier with the workload registry.
	_ "bbb/internal/kvservice"
)

// A task is one operation of a pass: one simulation run (fig7, kv) or one
// crash point (crash). Its key names the (workload, scheme) pair, or the
// crash point, that the recorded digests are keyed by.
type task struct {
	key string
	run func(r *runner, id int) outcome
}

// outcome is what one task produced. err is set when an output check
// failed; a panic is turned into err by the runner.
type outcome struct {
	err         error
	wall, build time.Duration // host time of the task and of its workload.Build
	digest      string
	simOps      uint64 // simulated loads + stores
	reqs        uint64 // simulated KV requests
	events      uint64 // engine events dispatched
	counters    *stats.Counters
	res         system.Result

	// Crash points only.
	sets, images int
}

// Workload sizes. fig7 is bbbench's Fig. 7 configuration (8 cores, 300
// operations per thread, 8 KiB L1D and 64 KiB L2); kv is bbbkv's default
// service tier with 8 clients; crash model-checks hashmap on 2 cores of a
// full-size machine, crashing every 20k cycles from cycle 20k: late enough
// that barrier-free PMEM leaves hundreds of dirty persistent lines, so
// every point of every seed tried (0-40) exposes a violating image.
type sizes struct {
	fig7Ops     int
	kvOps       int
	crashOps    int
	crashPoints int
}

var defaultSizes = sizes{fig7Ops: 300, kvOps: 400, crashOps: 150, crashPoints: 6}

const (
	crashFirst = engine.Cycle(20_000)
	crashStep  = engine.Cycle(20_000)
)

// buildTasks returns one pass of the named workload for seed.
func buildTasks(name string, seed int64, sz sizes) ([]task, error) {
	switch name {
	case "fig7":
		return fig7Tasks(seed, sz), nil
	case "kv":
		return kvTasks(seed, sz), nil
	case "crash":
		return crashTasks(seed, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want fig7, kv or crash)", name)
}

func fig7Tasks(seed int64, sz sizes) []task {
	p := workload.Params{Threads: 8, OpsPerThread: sz.fig7Ops, Seed: seed}
	config := func(s persistency.Scheme, entries int) system.Config {
		cfg := system.DefaultConfig(s)
		cfg.BBPB.Entries = entries
		cfg.Hierarchy.L1Size = 8 * 1024
		cfg.Hierarchy.L2Size = 64 * 1024
		return cfg
	}
	var ts []task
	for _, w := range workload.Registry() {
		ts = append(ts,
			simTask("fig7/"+w.Name()+"/eadr", w.Name(), persistency.EADR, config(persistency.EADR, 32), p),
			simTask("fig7/"+w.Name()+"/bbb-32", w.Name(), persistency.BBB, config(persistency.BBB, 32), p),
			simTask("fig7/"+w.Name()+"/bbb-1024", w.Name(), persistency.BBB, config(persistency.BBB, 1024), p))
	}
	return ts
}

func kvTasks(seed int64, sz sizes) []task {
	p := workload.Params{Threads: 8, OpsPerThread: sz.kvOps, Seed: seed}
	var ts []task
	for _, s := range []persistency.Scheme{persistency.PMEM, persistency.EADR, persistency.BBB} {
		ts = append(ts, simTask("kv/"+s.String(), "kv", s, system.DefaultConfig(s), p))
	}
	return ts
}

func crashTasks(seed int64, sz sizes) []task {
	bare := workload.Params{Threads: 2, OpsPerThread: sz.crashOps, Seed: seed, NoBarriers: true}
	fenced := bare
	fenced.NoBarriers = false
	var ts []task
	for i := 0; i < sz.crashPoints; i++ {
		at := crashFirst + engine.Cycle(i)*crashStep
		ts = append(ts,
			crashTask(fmt.Sprintf("crash/pmem-nobarriers/%d", at), persistency.PMEM, system.DefaultConfig(persistency.PMEM), bare, at),
			crashTask(fmt.Sprintf("crash/bbb/%d", at), persistency.BBB, system.DefaultConfig(persistency.BBB), fenced, at))
	}
	return ts
}

// simTask runs one workload under one scheme to completion, then checks
// the durable image its flush-on-fail leaves behind.
func simTask(key, name string, s persistency.Scheme, cfg system.Config, p workload.Params) task {
	return task{key: key, run: func(r *runner, id int) outcome {
		w := r.byName(name, id)
		sys, progs, panics := r.build(w, s, cfg, p, id)
		defer sys.Shutdown()
		var res system.Result
		r.span("system.Run", id, func() { res = sys.Run(progs) })
		if err := panics.err(); err != nil {
			return outcome{err: err}
		}
		r.span("workload.FoldServiceMetrics", id, func() { workload.FoldServiceMetrics(w, &res) })
		var err error
		r.span("system.Crash", id, func() { sys.Crash() })
		r.span("workload.Check", id, func() { err = w.Check(sys.Mem) })
		if err != nil {
			return outcome{err: fmt.Errorf("durable image fails %s's check: %v", name, err)}
		}
		o := outcome{
			res:      res,
			counters: res.Counters,
			simOps:   res.Loads + res.Stores,
			events:   sys.Eng.Dispatched,
		}
		if h := kvLatency(res); h != nil {
			o.reqs = h.Count()
		}
		o.digest = digest(resultText(res, o.events), nil)
		return o
	}}
}

// crashTask runs hashmap to one crash point, enumerates every durable
// image the scheme allows there and checks each with the workload's
// recovery checker. Barrier-free PMEM must expose a violating image (the
// paper's Fig. 2 bug); BBB with barriers must expose exactly one image,
// and it must pass.
func crashTask(key string, s persistency.Scheme, cfg system.Config, p workload.Params, at engine.Cycle) task {
	return task{key: key, run: func(r *runner, id int) outcome {
		w := r.byName("hashmap", id)
		sys, progs, panics := r.build(w, s, cfg, p, id)
		defer sys.Shutdown()
		var finished bool
		r.span("system.RunUntil", id, func() { finished = sys.RunUntil(at, progs) })
		if err := panics.err(); err != nil {
			return outcome{err: err}
		}
		var rec *crashmc.Record
		r.span("crashmc.Capture", id, func() { rec = crashmc.Capture(sys, at, finished) })
		res := sys.ResultAfterCrash()
		var enum crashmc.Enumeration
		r.span("crashmc.Enumerate", id, func() { enum = crashmc.Enumerate(rec, crashmc.DefaultBounds()) })
		var scratch *memory.Memory
		r.span("memory.Clone", id, func() { scratch = rec.Base.Clone() })
		violating := 0
		r.span("crashmc.Check", id, func() {
			for _, img := range enum.Images {
				crashmc.ApplyOverlay(scratch, img.Overlay)
				if w.Check(scratch) != nil {
					violating++
				}
				crashmc.RevertOverlay(scratch, rec.Base, img.Overlay)
			}
		})
		o := outcome{
			res:      res,
			counters: res.Counters,
			simOps:   res.Loads + res.Stores,
			events:   sys.Eng.Dispatched,
			sets:     enum.Sets,
			images:   len(enum.Images),
		}
		switch {
		case p.NoBarriers && violating == 0:
			o.err = fmt.Errorf("barrier-free PMEM crash point exposes no violating image (%d images)", len(enum.Images))
		case !p.NoBarriers && (len(enum.Images) != 1 || violating != 0):
			o.err = fmt.Errorf("battery-backed crash point: %d images, %d violating; want 1 and 0", len(enum.Images), violating)
		}
		var b strings.Builder
		b.WriteString(resultText(res, o.events))
		fmt.Fprintf(&b, "finished=%t pending=%d domain=%d sets=%d skipped=%d images=%d violating=%d\n",
			finished, len(rec.Pending), rec.DomainLines, enum.Sets, enum.SetsSkipped, len(enum.Images), violating)
		o.digest = digest(b.String(), enum.Images)
		return o
	}}
}

// kvLatency returns the service tier's request-latency histogram, or nil
// for workloads without one.
func kvLatency(res system.Result) *stats.Histogram {
	if res.Metrics == nil {
		return nil
	}
	return res.Metrics.Hist("kv.lat")
}

// resultText renders every simulated output of a run canonically: the
// Result's scalar fields, every counter by name, every histogram and the
// engine's event count. Two runs with equal text simulated the same thing.
func resultText(res system.Result, events uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scheme=%s cycles=%d nvmm_writes=%d rejections=%d drains=%d forced_drains=%d skipped_writebacks=%d\n",
		res.Scheme, res.Cycles, res.NVMMWrites, res.Rejections, res.Drains, res.ForcedDrains, res.SkippedWritebacks)
	fmt.Fprintf(&b, "stores=%d persisting_stores=%d loads=%d stall_cycles=%d dirty_fraction=%v events=%d\n",
		res.Stores, res.PersistingStores, res.Loads, res.StallCycles, res.DirtyFraction, events)
	if res.Counters != nil {
		names := res.Counters.Names()
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "%s=%d\n", n, res.Counters.Get(n))
		}
	}
	if res.Metrics != nil {
		for _, n := range res.Metrics.HistNames() {
			h := res.Metrics.Hist(n)
			fmt.Fprintf(&b, "hist %s count=%d sum=%d min=%d max=%d p50=%v p99=%v\n",
				n, h.Count(), h.Sum(), h.Min(), h.Max(), h.P50(), h.P99())
		}
	}
	return b.String()
}

// digest hashes a run's canonical text and, for a crash point, the hashes
// of its distinct images in enumeration order.
func digest(text string, images []crashmc.Image) string {
	h := sha256.New()
	h.Write([]byte(text))
	for _, img := range images {
		h.Write(img.Hash[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
