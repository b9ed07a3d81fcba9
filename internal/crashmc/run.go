package crashmc

import (
	"fmt"

	"bbb/internal/engine"
	"bbb/internal/memory"
	"bbb/internal/persistency"
	"bbb/internal/sweep"
	"bbb/internal/system"
	"bbb/internal/workload"
)

// Config describes one model-checking campaign: a sweep of crash points,
// validating every reachable image at each within Bounds. Bounds.MaxImages
// of 1 checks only the deterministic flush-on-fail image: that is crash
// injection (bbb.CrashCampaign).
type Config struct {
	Workload workload.Workload
	Scheme   persistency.Scheme
	System   system.Config
	Params   workload.Params
	// Crash points: FirstCrash, then every Step cycles, Points times.
	FirstCrash engine.Cycle
	Step       engine.Cycle
	Points     int
	// Parallel bounds how many crash points run concurrently, each on a
	// fresh machine; the report is byte-identical at any width. Workloads
	// outside the registry run serially (no ByName re-resolution).
	Parallel int
	// Bounds prune the per-point enumeration.
	Bounds Bounds
}

// maxViolations caps the violations recorded per point (the counts stay
// exact).
const maxViolations = 4

// Violation is one reachable durable image the recovery checker rejects.
type Violation struct {
	// Hash identifies the violating image.
	Hash [32]byte
	// Survivors are the pending-write indices whose survival produced it.
	Survivors []int
	// Err is the checker's complaint.
	Err string
	// Minimized is the smallest legal surviving subset that still fails
	// (computed for the first violation of each crash point); nil when
	// minimization was not attempted.
	Minimized []int
	// MinimizedErr is the checker's complaint on the minimized image.
	MinimizedErr string
}

// PointResult is one crash point's exploration.
type PointResult struct {
	CrashCycle engine.Cycle
	Finished   bool
	Drain      persistency.DrainReport
	// DomainLines counts pending writes already inside the persistence
	// domain (always survive); Pending counts the enumerable ones.
	DomainLines int
	Pending     int
	// Sets / SetsSkipped / DistinctImages summarize the enumeration.
	Sets           int
	SetsSkipped    uint64
	DistinctImages int
	// ViolatingImages counts distinct images the checker rejected.
	ViolatingImages int
	Violations      []Violation
	// Witness replays the first minimized violation via bbbmc -repro.
	Witness *Witness
}

// Report aggregates a campaign.
type Report struct {
	Workload string
	Scheme   persistency.Scheme
	Barriers bool
	Bounds   Bounds
	Points   []PointResult

	// Aggregates over the points.
	TotalSets       int
	TotalDistinct   int
	TotalViolating  int
	MaxPending      int
	DrainedLinesMax int
	Truncated       bool
}

// Run executes the campaign. Every crash point is an independent run from
// a fresh image, enumerated and validated in isolation, so the fan-out is
// embarrassingly parallel and deterministic.
func (c Config) Run() Report {
	if c.Points <= 0 {
		panic("crashmc: Points must be positive")
	}
	b := c.Bounds.withDefaults()
	rep := Report{
		Workload: c.Workload.Name(),
		Scheme:   c.Scheme,
		Barriers: !c.Params.NoBarriers,
		Bounds:   b,
	}
	// Setup and Programs mutate workload-instance state, so with more than
	// one worker every point resolves a private instance by name. A
	// workload outside the registry cannot be re-resolved and forces a
	// serial sweep over c.Workload itself.
	workers := c.Parallel
	if workers > 1 {
		if _, err := workload.ByName(c.Workload.Name()); err != nil {
			workers = 1
		}
	}
	rep.Points = sweep.Map(workers, c.Points, func(i int) PointResult {
		w := c.Workload
		if workers > 1 {
			w, _ = workload.ByName(w.Name())
		}
		return checkPoint(w, c, b, c.FirstCrash+engine.Cycle(i)*c.Step)
	})
	for _, p := range rep.Points {
		rep.TotalSets += p.Sets
		rep.TotalDistinct += p.DistinctImages
		rep.TotalViolating += p.ViolatingImages
		if p.Pending > rep.MaxPending {
			rep.MaxPending = p.Pending
		}
		if n := p.Drain.Lines(); n > rep.DrainedLinesMax {
			rep.DrainedLinesMax = n
		}
		if p.SetsSkipped > 0 {
			rep.Truncated = true
		}
	}
	return rep
}

// checkPoint explores one crash cycle: run, capture, enumerate, validate.
func checkPoint(w workload.Workload, c Config, b Bounds, crashAt engine.Cycle) PointResult {
	sys, finished := workload.BuildToCrash(w, c.Scheme, c.System, c.Params, crashAt)
	rec := Capture(sys, crashAt, finished)
	enum := Enumerate(rec, b)

	res := PointResult{
		CrashCycle:     crashAt,
		Finished:       finished,
		Drain:          rec.Drain,
		DomainLines:    rec.DomainLines,
		Pending:        len(rec.Pending),
		Sets:           enum.Sets,
		SetsSkipped:    enum.SetsSkipped,
		DistinctImages: len(enum.Images),
	}

	// One scratch image per point: apply an overlay, check, revert.
	scratch := rec.Base.Clone()
	checkSet := func(survivors []int) string {
		img := Materialize(rec, survivors)
		ApplyOverlay(scratch, img.Overlay)
		errStr := ""
		if err := w.Check(scratch); err != nil {
			errStr = err.Error()
		}
		RevertOverlay(scratch, rec.Base, img.Overlay)
		return errStr
	}

	for _, img := range enum.Images {
		ApplyOverlay(scratch, img.Overlay)
		err := w.Check(scratch)
		RevertOverlay(scratch, rec.Base, img.Overlay)
		if err == nil {
			continue
		}
		res.ViolatingImages++
		if len(res.Violations) >= maxViolations {
			continue
		}
		v := Violation{Hash: img.Hash, Survivors: img.Survivors, Err: err.Error()}
		if len(res.Violations) == 0 {
			v.Minimized, v.MinimizedErr = Minimize(rec, img.Survivors, checkSet)
			res.Witness = NewWitness(c, crashAt, rec, v.Minimized, v.MinimizedErr)
		}
		res.Violations = append(res.Violations, v)
	}
	return res
}

// ApplyOverlay writes an image overlay into m. Validators other than Run's
// recovery-checker pass (the litmus conformance driver in
// internal/litmus/conform judges images against the axiomatic allowed set)
// use it with Enumerate, Materialize, Minimize and NewWitness.
func ApplyOverlay(m *memory.Memory, overlay []LineWrite) {
	for i := range overlay {
		m.WriteLine(overlay[i].Addr, &overlay[i].Data)
	}
}

// RevertOverlay restores m's overlaid lines from base.
func RevertOverlay(m, base *memory.Memory, overlay []LineWrite) {
	var line [memory.LineSize]byte
	for i := range overlay {
		base.PeekLine(overlay[i].Addr, &line)
		m.WriteLine(overlay[i].Addr, &line)
	}
}

// Minimize greedily shrinks a violating survival set: survivors drop
// youngest-first while the set stays legal (epoch-downward closed) and
// check (which returns the complaint, "" for an acceptable image) still
// rejects the image, iterating to a fixpoint. The result is a minimal
// witness in the sense that no single remaining survivor can be dropped.
func Minimize(rec *Record, survivors []int, check func([]int) string) ([]int, string) {
	cur := append([]int(nil), survivors...)
	errStr := check(cur)
	if errStr == "" {
		// The full set no longer fails through this path (cannot happen:
		// the caller only minimizes failing sets); keep it unminimized.
		return cur, errStr
	}
	for changed := true; changed; {
		changed = false
		for i := len(cur) - 1; i >= 0; i-- {
			cand := make([]int, 0, len(cur)-1)
			cand = append(cand, cur[:i]...)
			cand = append(cand, cur[i+1:]...)
			if !legalSet(rec, cand) {
				continue
			}
			if e := check(cand); e != "" {
				cur, errStr = cand, e
				changed = true
			}
		}
	}
	return cur, errStr
}

// legalSet reports whether the survival set respects every class rule:
// a surviving epoch-class write requires every same-core pending write of
// an earlier epoch to survive too.
func legalSet(rec *Record, set []int) bool {
	in := make(map[int]bool, len(set))
	for _, i := range set {
		in[i] = true
	}
	for _, i := range set {
		w := rec.Pending[i]
		if w.Class != ClassEpoch {
			continue
		}
		for j, o := range rec.Pending {
			if o.Class == ClassEpoch && o.Core == w.Core && o.Epoch < w.Epoch && !in[j] {
				return false
			}
		}
	}
	return true
}

// String summarizes the report in the campaign-table format of the CLIs.
func (r Report) String() string {
	mode := "with barriers"
	if !r.Barriers {
		mode = "NO barriers"
	}
	trunc := ""
	if r.Truncated {
		trunc = "  (bounded)"
	}
	return fmt.Sprintf("%-10s %-9s %-13s points: %3d  pending(max): %3d  sets: %6d  images: %6d  violating: %5d%s",
		r.Workload, r.Scheme, mode, len(r.Points), r.MaxPending, r.TotalSets, r.TotalDistinct, r.TotalViolating, trunc)
}

// FirstWitness returns the first crash point's minimized witness, if any
// point violated.
func (r Report) FirstWitness() *Witness {
	for _, p := range r.Points {
		if p.Witness != nil {
			return p.Witness
		}
	}
	return nil
}

// SingleImage reports whether every crash point enumerated exactly one
// reachable image — the paper's claim for the battery-complete schemes.
func (r Report) SingleImage() bool {
	for _, p := range r.Points {
		if p.DistinctImages != 1 {
			return false
		}
	}
	return true
}
