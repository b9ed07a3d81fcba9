package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"bbb/internal/cpu"
	"bbb/internal/persistency"
	"bbb/internal/system"
	"bbb/internal/workload"
)

// small keeps the self-tests quick: one crash point per scheme.
var small = sizes{fig7Ops: 20, kvOps: 20, crashOps: 150, crashPoints: 1}

func TestMetricListsAreWellFormed(t *testing.T) {
	for _, ms := range [][]metric{endToEnd, perLayer} {
		if err := checkMetrics(ms); err != nil {
			t.Error(err)
		}
	}
	have := map[string]bool{}
	for _, m := range perLayer {
		have[m.name] = true
	}
	for _, l := range profileLayers {
		if !have["host_pct."+l] {
			t.Errorf("profile layer %s has no host_pct metric", l)
		}
	}
}

func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit, Better string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", what, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark prints %+v", what, i, g, m)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, err := buildTasks(w.Name, devSeed, small); err != nil {
			t.Error(err)
		}
	}
}

// lastJSON decodes the result line the benchmark printed last.
func lastJSON(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return r
}

func TestRunPrintsEveryMetricWithItsUnit(t *testing.T) {
	for _, c := range []struct {
		trace string
		want  []metric
	}{{"0", endToEnd}, {"1", perLayer}} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "kv", "--seconds", "1", "--trace", c.trace, "--out-dir", t.TempDir()}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", c.trace, code, stderr.String())
		}
		r := lastJSON(t, stdout.String())
		if !r.Correct || r.Failed != 0 || r.Attempted < 3 {
			t.Errorf("trace %s: result %+v\n%s", c.trace, r, stderr.String())
		}
		if len(r.Metrics) != len(c.want) {
			t.Errorf("trace %s: %d metrics, want %d", c.trace, len(r.Metrics), len(c.want))
		}
		for _, m := range c.want {
			if v, ok := r.Metrics[m.name]; !ok || v.Unit != m.unit {
				t.Errorf("trace %s: metric %s printed as %+v, want unit %s", c.trace, m.name, v, m.unit)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "kv", "--trace", "2"},
		{"--workload", "kv", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || strings.Contains(stdout.String(), "{") {
			t.Errorf("%v: exit %d, output %q", args, code, stdout.String())
		}
	}
}

func newBench(t *testing.T, name string, tasks []task, want map[string]string) (*bench, *bytes.Buffer) {
	t.Helper()
	var errs bytes.Buffer
	return &bench{name: name, tasks: tasks, want: want, out: &bytes.Buffer{}, errOut: &errs}, &errs
}

func mustRun(t *testing.T, b *bench, r *runner) *pass {
	t.Helper()
	p, err := b.run(r)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCorruptedDigestIsAFailedOperation(t *testing.T) {
	tasks, err := buildTasks("crash", devSeed, small)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(recordedDigests, &want); err != nil {
		t.Fatal(err)
	}
	b, _ := newBench(t, "crash", tasks, want)
	mustRun(t, b, &runner{})
	if b.attempted != 2 || b.failed != 0 {
		t.Fatalf("recorded digests: %d of %d failed", b.failed, b.attempted)
	}
	corrupt := map[string]string{}
	for k, v := range want {
		corrupt[k] = v
	}
	corrupt[tasks[0].key] = strings.Repeat("0", 64)
	b, errs := newBench(t, "crash", tasks, corrupt)
	mustRun(t, b, &runner{})
	if b.attempted != 2 || b.failed != 1 || !strings.Contains(errs.String(), tasks[0].key) {
		t.Fatalf("corrupted digest: %d of %d failed\n%s", b.failed, b.attempted, errs.String())
	}
}

// panicky is hashmap whose first program panics after one store.
type panicky struct{ workload.Workload }

func (p panicky) Name() string { return "perfbench-selftest-panicky" }

func (p panicky) Programs(params workload.Params) []system.Program {
	progs := p.Workload.Programs(params)
	progs[0] = func(e cpu.Env) {
		cpu.Store64(e, 0x1000_0000, 1)
		panic("forced")
	}
	return progs
}

func init() {
	workload.Register(func() workload.Workload { return panicky{workload.NewHashmap()} })
}

func TestForcedPanicIsAFailedOperation(t *testing.T) {
	p := workload.Params{Threads: 2, OpsPerThread: 20, Seed: devSeed}
	tasks := []task{
		{key: "selftest/panic-in-bench", run: func(r *runner, id int) outcome { panic("forced") }},
		simTask("selftest/panic-in-program", "perfbench-selftest-panicky", persistency.BBB, system.DefaultConfig(persistency.BBB), p),
		simTask("selftest/ok", "hashmap", persistency.BBB, system.DefaultConfig(persistency.BBB), p),
	}
	for _, traced := range []bool{false, true} {
		r := &runner{}
		if traced {
			r = &runner{tr: newTracer(), env: &envTotals{}}
		}
		b, errs := newBench(t, "selftest", tasks, nil)
		ps := mustRun(t, b, r)
		if b.attempted != 3 || b.failed != 2 || ps.outcomes[2].err != nil {
			t.Fatalf("traced=%v: %d of %d failed\n%s", traced, b.failed, b.attempted, errs.String())
		}
		if !strings.Contains(ps.outcomes[1].err.Error(), "forced") {
			t.Errorf("program panic reported as %v", ps.outcomes[1].err)
		}
		if traced && len(r.tr.stack) != 0 {
			t.Errorf("spans left open after panics: %v", r.tr.stack)
		}
	}
}

func TestTracedResultsEqualUntraced(t *testing.T) {
	for _, name := range []string{"fig7", "kv", "crash"} {
		tasks, err := buildTasks(name, 3, small)
		if err != nil {
			t.Fatal(err)
		}
		b, errs := newBench(t, name, tasks, nil)
		plain := mustRun(t, b, &runner{})
		r := &runner{tr: newTracer(), env: &envTotals{}}
		traced := mustRun(t, b, r)
		if b.failed != 0 {
			t.Fatalf("%s: %d failed\n%s", name, b.failed, errs.String())
		}
		for i := range tasks {
			if plain.outcomes[i].digest != traced.outcomes[i].digest {
				t.Errorf("%s: %s differs when traced", tasks[i].key, tasks[i].key)
			}
		}
		var sum time.Duration
		for _, d := range traced.self {
			sum += d
		}
		if sum <= 0 || sum > traced.wall {
			t.Errorf("%s: self-times sum to %v of a %v pass", name, sum, traced.wall)
		}
		if name != "crash" && traced.env.calls == 0 {
			t.Errorf("%s: the Env decorator saw no calls", name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each xs.
	for _, c := range []struct{ xs, want []float64 }{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, []float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, []float64{1, 2, 3}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := []float64{q1, q2, q3}; !reflect.DeepEqual(got, c.want) {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"bbb/internal/engine.(*Engine).Run", "main.main"}, "engine"},
		{[]string{"runtime.mapaccess2", "bbb/internal/memory.(*Memory).page"}, "memory"},
		{[]string{"crypto/sha256.block", "bbb/internal/crashmc.materialize"}, "crashmc"},
		{[]string{"runtime.futex", "runtime.futexwakeup", "runtime.notewakeup", "runtime.startm", "runtime.wakep", "runtime.ready", "runtime.goready", "runtime.send", "runtime.chansend", "bbb/internal/cpu.(*env).do"}, "runtime.sched"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.memmove", "runtime.mallocgc", "runtime.gcAssistAlloc"}, "runtime.gc"},
		{[]string{"runtime.sysmon", "runtime.mstart"}, "runtime.other"},
		{[]string{"bbb/internal/system.(*System).Run"}, "other"},
		{[]string{"main.(*timedEnv).Load"}, "bench"},
		{[]string{"syscall.Syscall"}, "other"},
	} {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}

func TestFoldProfileOfARealProfile(t *testing.T) {
	tasks, err := buildTasks("crash", devSeed, small)
	if err != nil {
		t.Fatal(err)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	b, _ := newBench(t, "crash", tasks, nil)
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		mustRun(t, b, &runner{})
	}
	pprof.StopCPUProfile()
	layers := map[string]int64{}
	n, err := foldProfile(prof.Bytes(), layers)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for l, ns := range layers {
		known := false
		for _, k := range profileLayers {
			known = known || k == l
		}
		if !known {
			t.Errorf("sample folded into unknown layer %s", l)
		}
		total += ns
	}
	if n == 0 || total <= 0 {
		t.Errorf("%d samples, %d ns folded", n, total)
	}
	if _, err := foldProfile([]byte("not a profile"), layers); err == nil {
		t.Error("garbage accepted as a profile")
	}
}
