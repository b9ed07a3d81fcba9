package crashmc

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"

	"bbb/internal/memory"
)

// Bounds keep the enumerated survival-set space tractable. The reachable
// space is exponential in the pending-write count (that is the point the
// paper makes about PMEM), so beyond a small exhaustive window the
// enumerator explores only the subsets near the two extreme images — the
// crash-consistency bugs this models (persist reordering across a missing
// barrier) are witnessed by small subsets, exactly as sampled-reordering
// crash testers bound their search.
type Bounds struct {
	// ExhaustiveLimit: a survival group with at most this many writes is
	// enumerated exhaustively (2^n subsets). Default 10.
	ExhaustiveLimit int
	// MaxFlips: a larger group is enumerated at every subset within
	// MaxFlips writes of either extreme (none survive / all survive),
	// i.e. |S| <= MaxFlips or |S| >= n-MaxFlips. Default 2.
	MaxFlips int
	// MaxImages caps the survival sets materialized per crash point;
	// enumeration past the cap is counted in SetsSkipped, never silent.
	// The cap also bounds generation: no group builds more than MaxImages
	// candidate sets, so enumeration time and memory stay proportional to
	// the cap however large MaxFlips or the pending set grow. Default 4096.
	// MaxImages 1 checks only the deterministic flush-on-fail image
	// (Enumeration.Images[0]): crash injection.
	MaxImages int
}

// DefaultBounds are the short-campaign bounds used by `make mc-short`.
func DefaultBounds() Bounds { return Bounds{} }

func (b Bounds) withDefaults() Bounds {
	if b.ExhaustiveLimit <= 0 {
		b.ExhaustiveLimit = 10
	}
	if b.MaxFlips <= 0 {
		b.MaxFlips = 2
	}
	if b.MaxImages <= 0 {
		b.MaxImages = 4096
	}
	return b
}

// LineWrite is one line of an image's overlay relative to the base image.
type LineWrite struct {
	Addr memory.Addr
	Data [memory.LineSize]byte
}

// Image is one distinct reachable durable state.
type Image struct {
	// Survivors are indices into Record.Pending (ascending) of the first
	// enumerated survival set that produced this image.
	Survivors []int
	// Overlay holds the lines whose bytes differ from the base image,
	// ascending by address — the canonical form the hash covers.
	Overlay []LineWrite
	// Hash is the canonical image hash: images with equal hashes are the
	// same durable state even if reached by different survival sets.
	Hash [32]byte
}

// Enumeration is the materialized reachable space at one crash point.
type Enumeration struct {
	// Sets is the number of legal survival sets enumerated.
	Sets int
	// SetsSkipped counts legal sets the bounds left unexplored — pruned
	// by ExhaustiveLimit/MaxFlips or cut by MaxImages (bounded-model-
	// checking honesty: truncation is never silent).
	SetsSkipped uint64
	// Images are the distinct reachable images, in first-seen order.
	// Images[0] always exists and is the deterministic flush-on-fail
	// image (the empty survival set extends the base by nothing).
	Images []Image
}

// Enumerate materializes the reachable crash-state space of rec within b.
func Enumerate(rec *Record, b Bounds) Enumeration {
	b = b.withDefaults()
	groups, total := survivalGroups(rec, b)

	var (
		enum Enumeration
		seen = make(map[[32]byte]bool)
		pick = make([]int, len(groups))
	)
	emit := func(set []int) {
		if enum.Sets >= b.MaxImages {
			return
		}
		enum.Sets++
		img := Materialize(rec, set)
		if !seen[img.Hash] {
			seen[img.Hash] = true
			enum.Images = append(enum.Images, img)
		}
	}
	// Odometer cross product over the groups' candidate sets, in
	// deterministic lexicographic order; the empty survival set (every
	// group's first candidate) always comes first.
	for {
		set := make([]int, 0)
		for gi, g := range groups {
			set = append(set, g[pick[gi]]...)
		}
		sort.Ints(set)
		emit(set)
		if enum.Sets >= b.MaxImages {
			break
		}
		i := len(groups) - 1
		for i >= 0 {
			pick[i]++
			if pick[i] < len(groups[i]) {
				break
			}
			pick[i] = 0
			i--
		}
		if i < 0 {
			break
		}
	}
	if total > uint64(enum.Sets) {
		enum.SetsSkipped = total - uint64(enum.Sets)
	}
	return enum
}

// survivalGroups splits the pending set into independent groups and
// returns each group's legal candidate subsets (indices into Pending),
// plus the size of the FULL legal space (saturating) so callers can
// report how much the bounds pruned. ClassFree writes form one group
// with unconstrained subsets; each BEP core's ClassEpoch writes form a
// group whose subsets are epoch-downward closed (full earlier epochs,
// any bounded subset of the frontier epoch).
func survivalGroups(rec *Record, b Bounds) ([][][]int, uint64) {
	var free []int
	perCore := make(map[int][]int)
	var coreOrder []int
	for i, w := range rec.Pending {
		switch w.Class {
		case ClassFree:
			free = append(free, i)
		case ClassEpoch:
			if _, ok := perCore[w.Core]; !ok {
				coreOrder = append(coreOrder, w.Core)
			}
			perCore[w.Core] = append(perCore[w.Core], i)
		}
	}
	var groups [][][]int
	total := uint64(1)
	if len(free) > 0 {
		groups = append(groups, boundedSubsets(free, b))
		total = satMul(total, satPow2(len(free)))
	}
	for _, c := range coreOrder {
		groups = append(groups, epochSubsets(rec, perCore[c], b))
		total = satMul(total, epochSpaceSize(rec, perCore[c]))
	}
	if len(groups) == 0 {
		// No pending writes: the space is exactly {base image}.
		groups = append(groups, [][]int{{}})
	}
	return groups, total
}

// epochSpaceSize counts one core's full legal survival space: the empty
// set plus, for each epoch as the frontier, its nonempty subsets (the
// full-frontier set of epoch e coincides with the empty-frontier cut at
// epoch e+1, so per-epoch counts are 2^|e| - 1).
func epochSpaceSize(rec *Record, idx []int) uint64 {
	counts := epochRuns(rec, idx)
	total := uint64(1)
	for _, n := range counts {
		total += satPow2(n) - 1
		if total == ^uint64(0) {
			break
		}
	}
	return total
}

// epochRuns returns the run lengths of consecutive equal-epoch entries
// (capture order is allocation order, so idx is epoch-nondecreasing).
func epochRuns(rec *Record, idx []int) []int {
	var (
		runs []int
		last uint64
	)
	for _, i := range idx {
		e := rec.Pending[i].Epoch
		if len(runs) == 0 || e != last {
			runs = append(runs, 0)
			last = e
		}
		runs[len(runs)-1]++
	}
	return runs
}

// boundedSubsets returns subsets of idx per Bounds, deterministically
// ordered: by cardinality ascending, lexicographic within a cardinality
// (ascending bitmask order when exhaustive), with the near-full
// complements last. The empty set is always first. The list stops at
// MaxImages entries: Enumerate's odometer reaches a group's j-th
// candidate only after at least j emitted sets, so later candidates are
// never used.
func boundedSubsets(idx []int, b Bounds) [][]int {
	n := len(idx)
	var out [][]int
	add := func(s []int) bool {
		out = append(out, s)
		return len(out) < b.MaxImages
	}
	if n <= b.ExhaustiveLimit {
		// Gosper's hack walks the n-bit masks of each popcount k in
		// ascending order.
		for k := 0; k <= n; k++ {
			for mask := uint64(1)<<uint(k) - 1; mask < 1<<uint(n); {
				var s []int
				for i := 0; i < n; i++ {
					if mask&(1<<uint(i)) != 0 {
						s = append(s, idx[i])
					}
				}
				if !add(s) {
					return out
				}
				if k == 0 {
					break
				}
				c := mask & -mask
				r := mask + c
				mask = (r^mask)>>2/c | r
			}
		}
		return out
	}
	for k := 0; k <= n; k++ {
		if k > b.MaxFlips && k < n-b.MaxFlips {
			continue
		}
		if !combinations(idx, k, func(s []int) bool { return add(append([]int(nil), s...)) }) {
			break
		}
	}
	return out
}

// combinations calls fn with every k-of-idx combination in lexicographic
// order until fn returns false, and reports whether it ran to the end. fn
// must copy s if it retains it.
func combinations(idx []int, k int, fn func(s []int) bool) bool {
	sel := make([]int, k)
	var rec func(start, d int) bool
	rec = func(start, d int) bool {
		if d == k {
			return fn(sel)
		}
		for i := start; i <= len(idx)-(k-d); i++ {
			sel[d] = idx[i]
			if !rec(i+1, d+1) {
				return false
			}
		}
		return true
	}
	return rec(0, 0)
}

// epochSubsets returns one core's legal vpb survival sets: for each cut
// epoch, every earlier epoch survives in full and the frontier epoch
// contributes any bounded subset. Like boundedSubsets, the list stops at
// MaxImages entries.
func epochSubsets(rec *Record, idx []int, b Bounds) [][]int {
	// Group the core's pending indices by epoch, ascending. Capture
	// order is allocation order and epochs only ever increment, so idx
	// is already epoch-nondecreasing.
	var (
		epochs [][]int
		last   uint64
	)
	for _, i := range idx {
		e := rec.Pending[i].Epoch
		if len(epochs) == 0 || e != last {
			epochs = append(epochs, nil)
			last = e
		}
		epochs[len(epochs)-1] = append(epochs[len(epochs)-1], i)
	}
	out := [][]int{nil} // nothing extra drained
	var prefix []int
	for _, frontier := range epochs {
		// A frontier's first candidate, the empty set, repeats the
		// previous cut's full frontier (the last candidate of a list
		// that was not cut short) or, for the first epoch, the nil set.
		for _, fs := range boundedSubsets(frontier, b)[1:] {
			if len(out) >= b.MaxImages {
				return out
			}
			out = append(out, append(append([]int(nil), prefix...), fs...))
		}
		prefix = append(prefix, frontier...)
	}
	return out
}

// Materialize resolves a survival set into its canonical image: survivors
// apply in capture (Seq) order, lines whose final bytes equal the base
// image drop out, and the rest hash in address order.
func Materialize(rec *Record, survivors []int) Image {
	img := Image{Survivors: survivors}
	var lines []LineWrite
	for _, i := range survivors { // ascending index == ascending Seq
		w := rec.Pending[i]
		found := false
		for j := range lines {
			if lines[j].Addr == w.Addr {
				lines[j].Data = w.Data
				found = true
				break
			}
		}
		if !found {
			lines = append(lines, LineWrite{Addr: w.Addr, Data: w.Data})
		}
	}
	var base [memory.LineSize]byte
	for _, lw := range lines {
		rec.Base.PeekLine(lw.Addr, &base)
		if base != lw.Data {
			img.Overlay = append(img.Overlay, lw)
		}
	}
	sort.Slice(img.Overlay, func(i, j int) bool { return img.Overlay[i].Addr < img.Overlay[j].Addr })
	h := sha256.New()
	var buf [8]byte
	for _, lw := range img.Overlay {
		binary.LittleEndian.PutUint64(buf[:], lw.Addr)
		h.Write(buf[:])
		h.Write(lw.Data[:])
	}
	copy(img.Hash[:], h.Sum(nil))
	return img
}

func satPow2(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1) << uint(n)
}

func satMul(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > ^uint64(0)/b {
		return ^uint64(0)
	}
	return a * b
}
