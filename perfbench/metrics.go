package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// metric names one number the benchmark prints.
type metric struct{ name, unit, better string }

// endToEnd are the metrics of a run with tracing off: every workload
// reports each of them, and BENCHMARK.json bounds them.
var endToEnd = []metric{
	{"setup_s", "s", "lower"},
	{"sim_ops_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run. Every workload reports each of
// them; a layer the workload does not exercise reads 0.
var perLayer = []metric{
	{"workload.build_s", "s", "lower"},
	{"workload.program_s", "s", "lower"},
	{"workload.check_s", "s", "lower"},
	{"system.run_s", "s", "lower"},
	{"stats.fold_s", "s", "lower"},
	{"cpu.env_calls", "count", "lower"},
	{"cpu.env_ns_per_call", "ns", "lower"},
	{"core.loads", "count", "lower"},
	{"core.stores", "count", "lower"},
	{"core.sb_full_stalls", "count", "lower"},
	{"core.clwbs", "count", "lower"},
	{"core.fences", "count", "lower"},
	{"engine.events", "count", "lower"},
	{"engine.ns_per_event", "ns", "lower"},
	{"l1.load_hits", "count", "higher"},
	{"l1.load_misses", "count", "lower"},
	{"l1.store_misses", "count", "lower"},
	{"l2.misses", "count", "lower"},
	{"l1.invalidations", "count", "lower"},
	{"l2.writebacks_skipped", "count", "higher"},
	{"bbpb.allocations", "count", "lower"},
	{"bbpb.coalesced", "count", "higher"},
	{"bbpb.drains", "count", "lower"},
	{"bbpb.rejections", "count", "lower"},
	{"bbpb.forced_drains", "count", "lower"},
	{"bbpb.migrated_out", "count", "lower"},
	{"bbpb.coalesce_ratio", "ratio", "higher"},
	{"nvmm.writes", "count", "lower"},
	{"nvmm.wpq_full_stalls", "count", "lower"},
	{"nvmm.wpq_coalesced", "count", "higher"},
	{"kv.batch_size.mean", "requests", "higher"},
	{"kv.queue_delay.p50", "cycles", "lower"},
	{"crashmc.capture_s", "s", "lower"},
	{"crashmc.enumerate_s", "s", "lower"},
	{"crashmc.check_s", "s", "lower"},
	{"memory.clone_s", "s", "lower"},
	{"crashmc.check_calls", "count", "higher"},
	{"crashmc.sets", "count", "higher"},
	{"crashmc.images", "count", "higher"},
	{"crashmc.images_per_set", "ratio", "higher"},
	{"host.alloc_mb", "MB", "lower"},
	{"host.mallocs", "count", "lower"},
	{"host.gc_cpu_s", "s", "lower"},
	{"host_pct.engine", "%", "lower"},
	{"host_pct.cpu", "%", "lower"},
	{"host_pct.coherence", "%", "lower"},
	{"host_pct.cache", "%", "lower"},
	{"host_pct.memory", "%", "lower"},
	{"host_pct.bbpb", "%", "lower"},
	{"host_pct.memctrl", "%", "lower"},
	{"host_pct.persistency", "%", "lower"},
	{"host_pct.stats", "%", "lower"},
	{"host_pct.workload", "%", "lower"},
	{"host_pct.pds", "%", "lower"},
	{"host_pct.kvservice", "%", "lower"},
	{"host_pct.crashmc", "%", "lower"},
	{"host_pct.runtime.sched", "%", "lower"},
	{"host_pct.runtime.gc", "%", "lower"},
	{"host_pct.runtime.other", "%", "lower"},
	{"host_pct.bench", "%", "lower"},
	{"host_pct.other", "%", "lower"},
	{"profile.samples", "count", "higher"},
	{"trace.overhead_s", "s", "lower"},
	{"trace.extra_mallocs", "count", "lower"},
	{"attr.bench_s", "s", "lower"},
	{"attr.closure_err_pct", "%", "lower"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkMetrics reports a metric list entry the output contract refuses:
// a malformed or repeated name, or a missing or malformed unit.
func checkMetrics(ms []metric) error {
	seen := map[string]bool{}
	for _, m := range ms {
		if !nameRE.MatchString(m.name) {
			return fmt.Errorf("metric name %q is malformed", m.name)
		}
		if !unitRE.MatchString(m.unit) {
			return fmt.Errorf("metric %s: unit %q is malformed", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			return fmt.Errorf("metric %s: better is %q", m.name, m.better)
		}
		if seen[m.name] {
			return fmt.Errorf("metric %s is listed twice", m.name)
		}
		seen[m.name] = true
	}
	return nil
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// fill copies the values of ms out of vals, failing on any missing one or
// on a value JSON cannot carry.
func fill(ms []metric, vals map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(ms))
	for _, m := range ms {
		v, ok := vals[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.name, v)
		}
		out[m.name] = value{Value: v, Unit: m.unit}
	}
	return out, nil
}

// quartiles computes Python's statistics.quantiles(xs, n=4) (the exclusive
// method, extrapolating for tiny samples exactly as Python does); the
// middle one is the median.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (ld + 1) / 4
		j = max(1, min(j, ld-1))
		delta := i*(ld+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// hostMem samples the Go runtime's allocation and GC counters.
type hostMem struct{ allocBytes, mallocs, gcCPU float64 }

var memSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readHostMem() hostMem {
	s := append([]metrics.Sample(nil), memSamples...)
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return hostMem{num(s[0].Value), num(s[1].Value), num(s[2].Value)}
}

func (a hostMem) sub(b hostMem) hostMem {
	return hostMem{a.allocBytes - b.allocBytes, a.mallocs - b.mallocs, a.gcCPU - b.gcCPU}
}

// resetPeakRSS restarts the kernel's peak resident set tracking (VmHWM)
// from the current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak rss: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) from procfs.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

// hostKey identifies the machine a run's host times belong to: numbers
// only compare between runs with equal keys.
func hostKey(seed int64) string {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				model = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s seed=%d",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), seed)
}
