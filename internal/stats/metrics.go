package stats

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// This file holds the observability-layer metric types: log-bucketed
// latency histograms, cycle-stamped gauge timelines, and the Metrics
// registry that names them — the structured telemetry the flat Counters
// cannot express (latency *distributions* per scheme, occupancy *over
// time* per component). Everything is cycle-stamped and append-ordered, so
// two runs of the same seed produce byte-identical metric dumps; no wall
// clock, no map-order iteration (detlint enforces both).

// Histogram accumulates uint64 samples into logarithmic (power-of-two)
// buckets: bucket 0 holds zeros, bucket i holds samples in
// [2^(i-1), 2^i - 1]. It keeps exact count/sum/min/max and answers
// quantile queries by linear interpolation inside the owning bucket —
// the same shape gem5 and production telemetry stacks use, because it is
// bounded in size, cheap to observe, and merges losslessly.
//
// The bucket array only reaches the highest bucket used so far: a run keeps
// many small histograms (every kv Result holds a dozen), and cycle
// latencies rarely pass bucket 20 of the 65. Copying a Histogram shares
// its buckets; use clone for an independent copy.
type Histogram struct {
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
	buckets []uint64 // indexed by bits.Len64(sample), len = highest used + 1
}

// Observe adds one sample. It allocates only when the sample lands above
// every earlier one's bucket.
func (h *Histogram) Observe(v uint64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	i := bits.Len64(v)
	if i >= len(h.buckets) {
		h.grow(i + 1)
	}
	h.buckets[i]++
}

// grow extends the bucket array to at least n buckets.
func (h *Histogram) grow(n int) {
	if n <= len(h.buckets) {
		return
	}
	b := make([]uint64, n)
	copy(b, h.buckets)
	h.buckets = b
}

// clone returns a copy of h that shares no buckets with it.
func (h *Histogram) clone() Histogram {
	c := *h
	c.buckets = append([]uint64(nil), h.buckets...)
	return c
}

// Equal reports whether h and other hold the same samples, bucket for
// bucket. The bucket arrays of equal histograms have equal lengths, as the
// highest used bucket follows from max.
func (h *Histogram) Equal(other *Histogram) bool {
	return h.count == other.count && h.sum == other.sum && h.min == other.min &&
		h.max == other.max && slices.Equal(h.buckets, other.buckets)
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Min returns the smallest sample (0 with no samples).
func (h *Histogram) Min() uint64 { return h.min }

// Max returns the largest sample (0 with no samples).
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the arithmetic mean (0 with no samples).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// bucketBounds returns the inclusive sample range of bucket i.
func bucketBounds(i int) (lo, hi uint64) {
	if i == 0 {
		return 0, 0
	}
	lo = 1 << uint(i-1)
	if i == 64 {
		return lo, ^uint64(0)
	}
	return lo, 1<<uint(i) - 1
}

// Quantile estimates the q-quantile (q in [0,1]) by locating the bucket
// containing the rank and interpolating linearly within its bounds,
// clamped to the observed min/max so small histograms stay exact-ish.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return float64(h.min)
	}
	if q >= 1 {
		return float64(h.max)
	}
	rank := q * float64(h.count-1)
	var cum uint64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		if float64(cum+c) > rank {
			lo, hi := bucketBounds(i)
			if lo < h.min {
				lo = h.min
			}
			if hi > h.max {
				hi = h.max
			}
			if hi <= lo {
				return float64(lo)
			}
			pos := (rank - float64(cum)) / float64(c)
			return float64(lo) + pos*float64(hi-lo)
		}
		cum += c
	}
	return float64(h.max)
}

// P50, P95 and P99 are the quantiles every latency report leads with.
func (h *Histogram) P50() float64 { return h.Quantile(0.50) }
func (h *Histogram) P95() float64 { return h.Quantile(0.95) }
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// Merge adds every sample of other into h (bucket-exact).
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.count == 0 || other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
	h.grow(len(other.buckets))
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
}

// Summary renders the one-line digest used by CLIs and golden tests.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%.0f p95=%.0f p99=%.0f max=%d",
		h.count, h.Mean(), h.P50(), h.P95(), h.P99(), h.max)
}

// GaugePoint is one cycle-stamped gauge sample. Core is -1 for gauges
// that are not per-core.
type GaugePoint struct {
	Cycle uint64
	Core  int16
	Value uint64
}

// gaugeCap bounds a series' retained points; on overflow the series
// decimates deterministically (every second retained point is dropped and
// the sampling stride doubles), so memory stays bounded while the
// timeline keeps full cycle coverage at reduced resolution.
const gaugeCap = 8192

// GaugeSeries is an append-only, cycle-ordered timeline of gauge samples
// (component occupancies, queue depths).
type GaugeSeries struct {
	points []GaugePoint
	stride uint64 // record every stride-th offered sample
	offers uint64
	max    uint64
	last   GaugePoint
}

// Record offers one sample; samples must arrive in non-decreasing cycle
// order (event-driven components guarantee this).
func (g *GaugeSeries) Record(cycle uint64, core int, v uint64) {
	if v > g.max {
		g.max = v
	}
	g.last = GaugePoint{Cycle: cycle, Core: int16(core), Value: v}
	if g.stride == 0 {
		g.stride = 1
	}
	g.offers++
	if (g.offers-1)%g.stride != 0 {
		return
	}
	if len(g.points) >= gaugeCap {
		kept := g.points[:0]
		for i := 0; i < len(g.points); i += 2 {
			kept = append(kept, g.points[i])
		}
		g.points = kept
		g.stride *= 2
		if (g.offers-1)%g.stride != 0 {
			return
		}
	}
	g.points = append(g.points, g.last)
}

// Points returns the retained timeline, oldest first.
func (g *GaugeSeries) Points() []GaugePoint { return append([]GaugePoint(nil), g.points...) }

// Count returns how many samples were offered (including decimated ones).
func (g *GaugeSeries) Count() uint64 { return g.offers }

// Max returns the largest value ever offered.
func (g *GaugeSeries) Max() uint64 { return g.max }

// Last returns the most recent sample (zero value with no samples).
func (g *GaugeSeries) Last() GaugePoint { return g.last }

// Summary renders the one-line digest used by CLIs.
func (g *GaugeSeries) Summary() string {
	return fmt.Sprintf("n=%d max=%d last=%d", g.offers, g.max, g.last.Value)
}

// Metrics is the named registry of histograms and gauge series, the
// structured sibling of Counters. A nil *Metrics is a valid, disabled
// registry: Observe and Sample on nil are allocation-free no-ops, so
// components hold one unconditionally (the same pattern as the nil trace
// recorder). Names live in the same namespace as counters and must be
// registered in Glossary — statlint cross-checks Observe/Sample sites
// against it exactly as it does Inc/Add.
type Metrics struct {
	hists  map[string]*Histogram
	horder []string
	gauges map[string]*GaugeSeries
	gorder []string
	wins   map[string]*Windowed
	worder []string
}

// NewMetrics returns an empty, enabled registry.
func NewMetrics() *Metrics {
	return &Metrics{
		hists:  make(map[string]*Histogram),
		gauges: make(map[string]*GaugeSeries),
		wins:   make(map[string]*Windowed),
	}
}

// Observe adds one sample to histogram name, creating it if needed. Safe
// (and free) on a nil registry.
func (m *Metrics) Observe(name string, v uint64) {
	if m == nil {
		return
	}
	h := m.hists[name]
	if h == nil {
		h = &Histogram{}
		m.hists[name] = h
		m.horder = append(m.horder, name)
	}
	h.Observe(v)
}

// Sample appends one cycle-stamped point to gauge series name, creating it
// if needed. core is -1 for non-core gauges. Safe (and free) on nil.
func (m *Metrics) Sample(name string, cycle uint64, core int, v uint64) {
	if m == nil {
		return
	}
	g := m.gauges[name]
	if g == nil {
		g = &GaugeSeries{}
		m.gauges[name] = g
		m.gorder = append(m.gorder, name)
	}
	g.Record(cycle, core, v)
}

// Hist returns histogram name, or nil if absent (or m is nil).
func (m *Metrics) Hist(name string) *Histogram {
	if m == nil {
		return nil
	}
	return m.hists[name]
}

// Gauge returns gauge series name, or nil if absent (or m is nil).
func (m *Metrics) Gauge(name string) *GaugeSeries {
	if m == nil {
		return nil
	}
	return m.gauges[name]
}

// HistNames returns histogram names in first-touch order.
func (m *Metrics) HistNames() []string {
	if m == nil {
		return nil
	}
	return append([]string(nil), m.horder...)
}

// GaugeNames returns gauge names in first-touch order.
func (m *Metrics) GaugeNames() []string {
	if m == nil {
		return nil
	}
	return append([]string(nil), m.gorder...)
}

// MergeHist folds a standalone histogram into histogram name, creating it
// if needed. Service workloads accumulate per-client histograms outside
// any registry (one goroutine each, no locking) and fold them in here
// after the run; the name must be documented in Glossary like any
// Observe site. Safe (and a no-op) on a nil registry or nil h.
func (m *Metrics) MergeHist(name string, h *Histogram) {
	if m == nil || h == nil {
		return
	}
	dst := m.hists[name]
	if dst == nil {
		dst = &Histogram{}
		m.hists[name] = dst
		m.horder = append(m.horder, name)
	}
	dst.Merge(h)
}

// MergeWindowed folds a standalone windowed histogram into windowed metric
// name, creating it if needed (adopting w's width and SLO bound). Like
// MergeHist, this is the post-run fold for per-client measurements; the
// name must be documented in Glossary — statlint audits MergeWindowed
// sites as writes and Windowed calls as reads. Safe (and a no-op) on a nil
// registry or nil w.
func (m *Metrics) MergeWindowed(name string, w *Windowed) {
	if m == nil || w == nil {
		return
	}
	dst := m.wins[name]
	if dst == nil {
		dst = NewWindowed(w.BaseWidth(), w.SLO())
		if m.wins == nil {
			m.wins = make(map[string]*Windowed)
		}
		m.wins[name] = dst
		m.worder = append(m.worder, name)
	}
	dst.Merge(w)
}

// Windowed returns windowed metric name, or nil if absent (or m is nil).
func (m *Metrics) Windowed(name string) *Windowed {
	if m == nil {
		return nil
	}
	return m.wins[name]
}

// WindowedNames returns windowed metric names in first-touch order.
func (m *Metrics) WindowedNames() []string {
	if m == nil {
		return nil
	}
	return append([]string(nil), m.worder...)
}

// Merge folds every histogram of other into m (gauge timelines are not
// merged: interleaving two machines' timelines has no meaning).
func (m *Metrics) Merge(other *Metrics) {
	if m == nil || other == nil {
		return
	}
	for _, name := range other.horder {
		h := m.hists[name]
		if h == nil {
			h = &Histogram{}
			m.hists[name] = h
			m.horder = append(m.horder, name)
		}
		h.Merge(other.hists[name])
	}
}

// String renders every metric, one per line, sorted by name — the
// deterministic dump behind bbbsim -verbose and the golden tests.
func (m *Metrics) String() string {
	if m == nil {
		return ""
	}
	var b strings.Builder
	hnames := m.HistNames()
	sort.Strings(hnames)
	for _, n := range hnames {
		fmt.Fprintf(&b, "%-32s %s\n", n, m.hists[n].Summary())
	}
	gnames := m.GaugeNames()
	sort.Strings(gnames)
	for _, n := range gnames {
		fmt.Fprintf(&b, "%-32s %s\n", n, m.gauges[n].Summary())
	}
	wnames := m.WindowedNames()
	sort.Strings(wnames)
	for _, n := range wnames {
		fmt.Fprintf(&b, "%-32s %s\n", n, m.wins[n].Summary())
	}
	return b.String()
}

// StringWith renders the metrics like String but annotates each line with
// its meaning from doc (normally the package Glossary).
func (m *Metrics) StringWith(doc map[string]string) string {
	if m == nil {
		return ""
	}
	var b strings.Builder
	render := func(n, summary string) {
		if d := doc[n]; d != "" {
			fmt.Fprintf(&b, "%-32s %s  # %s\n", n, summary, d)
		} else {
			fmt.Fprintf(&b, "%-32s %s\n", n, summary)
		}
	}
	hnames := m.HistNames()
	sort.Strings(hnames)
	for _, n := range hnames {
		render(n, m.hists[n].Summary())
	}
	gnames := m.GaugeNames()
	sort.Strings(gnames)
	for _, n := range gnames {
		render(n, m.gauges[n].Summary())
	}
	wnames := m.WindowedNames()
	sort.Strings(wnames)
	for _, n := range wnames {
		render(n, m.wins[n].Summary())
	}
	return b.String()
}
