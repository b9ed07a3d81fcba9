package pds

import (
	"fmt"
	"math/rand"
	"sort"

	"bbb/internal/cpu"
	"bbb/internal/memory"
	"bbb/internal/palloc"
	"bbb/internal/system"
	"bbb/internal/workload"
)

// The pds crash workloads drive each structure hard enough that the
// crash-image model checker can cut mid-operation (a half-linked enqueue,
// a resize migration in flight, a partially built tower) and verify the
// recovery invariants on every legal surviving image. They register under
// pds/* so witness replay and crash campaigns resolve them by
// name, but stay out of the Table IV matrices.
func init() {
	workload.Register(func() workload.Workload { return &queueWorkload{} })
	workload.Register(func() workload.Workload { return &mapWorkload{} })
	workload.Register(func() workload.Workload { return &resizeWorkload{} })
	workload.Register(func() workload.Workload { return &listWorkload{} })
}

// wrng is the drivers' per-thread seed formula (workload.rng's twin).
func wrng(p workload.Params, thread int) *rand.Rand {
	return rand.New(rand.NewSource(p.Seed*1000003 + int64(thread)))
}

// qVal packs an enqueue's provenance: producer thread in the high half,
// 1-based sequence number in the low half.
func qVal(tid, seq int) uint64 { return uint64(tid+1)<<32 | uint64(seq) }

// --- pds/queue ---

// queueWorkload: every thread enqueues tagged values into one shared MSQ
// and occasionally dequeues. The checker demands that each producer's
// surviving values are a contiguous ascending run — a hole would mean a
// node became durably reachable before its predecessor's link, i.e. a
// broken publish discipline.
type queueWorkload struct {
	q *Queue
}

func (w *queueWorkload) Name() string { return "pds/queue" }
func (w *queueWorkload) Description() string {
	return "pds MSQ persistent queue: concurrent tagged enqueues/dequeues, per-producer contiguity checked"
}
func (w *queueWorkload) PaperPStores() float64 { return 0 }

func (w *queueWorkload) Setup(mem *memory.Memory, arena *palloc.Arena, p workload.Params) {
	w.q = NewQueue(mem, arena, p.Threads, p.OpsPerThread+1)
}

func (w *queueWorkload) Programs(p workload.Params) []system.Program {
	progs := make([]system.Program, p.Threads)
	for t := 0; t < p.Threads; t++ {
		t := t
		progs[t] = func(e cpu.Env) {
			r := wrng(p, t)
			for i := 1; i <= p.OpsPerThread; i++ {
				w.q.Enqueue(e, t, qVal(t, i))
				if r.Intn(4) == 0 {
					w.q.Dequeue(e)
				}
			}
		}
	}
	return progs
}

func (w *queueWorkload) Check(mem *memory.Memory) error {
	img, err := RecoverQueue(mem, w.q.Base())
	if err != nil {
		return err
	}
	last := map[int]int{}
	for _, v := range img.Vals {
		tid := int(v>>32) - 1
		seq := int(v & 0xFFFF_FFFF)
		if tid < 0 || seq < 1 {
			return fmt.Errorf("pds/queue: malformed value %#x in durable image", v)
		}
		if prev, ok := last[tid]; ok && seq != prev+1 {
			return fmt.Errorf("pds/queue: producer %d jumps from seq %d to %d (lost middle enqueue)", tid, prev, seq)
		}
		last[tid] = seq
	}
	return nil
}

// --- pds/hashmap ---

// mapWorkload: all threads share one pre-sized map (no resize — that is
// resizeWorkload's job, under its quiescence contract). Each thread
// inserts its tagged keys in order and tombstones a sample of its earlier
// keys. The checker demands per-thread prefix contiguity: thread t's keys
// present in the image must be exactly 0..m for some m, since Put k+1
// only starts after Put k returned durable.
type mapWorkload struct {
	m *Map
}

// mwKey spreads thread-tagged keys across the table.
func mwKey(tid, i int) uint64 { return uint64(tid)<<20 | uint64(i) }

// mwVal is the value formula the checker verifies.
func mwVal(key uint64) uint64 { return key*31 + 7 }

func (w *mapWorkload) Name() string { return "pds/hashmap" }
func (w *mapWorkload) Description() string {
	return "pds persistent hash map: concurrent CAS inserts + tombstone deletes, per-thread prefix contiguity checked"
}
func (w *mapWorkload) PaperPStores() float64 { return 0 }

func (w *mapWorkload) Setup(mem *memory.Memory, arena *palloc.Arena, p workload.Params) {
	buckets := uint64(1)
	for buckets < uint64(p.Threads*p.OpsPerThread/2+1) {
		buckets *= 2
	}
	w.m = NewMap(mem, arena, p.Threads, p.OpsPerThread+1, buckets)
}

func (w *mapWorkload) Programs(p workload.Params) []system.Program {
	progs := make([]system.Program, p.Threads)
	for t := 0; t < p.Threads; t++ {
		t := t
		progs[t] = func(e cpu.Env) {
			r := wrng(p, t)
			for i := 0; i < p.OpsPerThread; i++ {
				key := mwKey(t, i)
				w.m.Put(e, t, key, mwVal(key))
				if i > 0 && r.Intn(5) == 0 {
					w.m.Delete(e, mwKey(t, r.Intn(i)))
				}
			}
		}
	}
	return progs
}

func (w *mapWorkload) Check(mem *memory.Memory) error {
	img, err := RecoverMap(mem, w.m.Base())
	if err != nil {
		return err
	}
	maxSeq := map[int]int{}
	count := map[int]int{}
	note := func(key uint64) {
		tid := int(key >> 20)
		seq := int(key & 0xF_FFFF)
		if seq > maxSeq[tid] {
			maxSeq[tid] = seq
		}
		count[tid]++
	}
	for _, key := range sortedKeys(img.Live) {
		if val := img.Live[key]; val != mwVal(key) {
			return fmt.Errorf("pds/hashmap: key %d has value %d, want %d", key, val, mwVal(key))
		}
		note(key)
	}
	for _, key := range sortedKeys(img.Dead) {
		note(key)
	}
	return checkContiguous("pds/hashmap", count, maxSeq)
}

// sortedKeys returns m's keys in ascending order, for deterministic checker
// walks (detlint bans raw map ranges in simulator packages).
func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m { //bbbvet:ignore detlint keys sorted immediately below
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// checkContiguous demands each thread's surviving sequence numbers form the
// exact prefix 0..max — a hole means a durably-lost middle operation.
func checkContiguous(name string, count, maxSeq map[int]int) error {
	tids := make([]int, 0, len(count))
	for t := range count { //bbbvet:ignore detlint tids sorted immediately below
		tids = append(tids, t)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		if count[tid] != maxSeq[tid]+1 {
			return fmt.Errorf("%s: thread %d has %d surviving keys but max seq %d (lost middle insert)", name, tid, count[tid], maxSeq[tid])
		}
	}
	return nil
}

// --- pds/hashresize ---

// resizeWorkload: each thread owns a private map seeded with deliberately
// few buckets, so steady inserts force repeated out-of-place resizes —
// the crash checker then cuts mid-migration and recovery must land on a
// whole table (old until the root switch persists, new after).
type resizeWorkload struct {
	maps []*Map
}

func (w *resizeWorkload) Name() string { return "pds/hashresize" }
func (w *resizeWorkload) Description() string {
	return "pds hash map resize: single-writer tables resized out of place under load, whole-table recovery checked"
}
func (w *resizeWorkload) PaperPStores() float64 { return 0 }

func (w *resizeWorkload) Setup(mem *memory.Memory, arena *palloc.Arena, p workload.Params) {
	w.maps = nil
	for t := 0; t < p.Threads; t++ {
		// Heap sizing: ops nodes, plus a copy of every live node per
		// resize (log2(ops) resizes of at most ops nodes), plus the
		// tables themselves.
		w.maps = append(w.maps, NewMap(mem, arena, 1, p.OpsPerThread*8+64, 2))
	}
}

func (w *resizeWorkload) Programs(p workload.Params) []system.Program {
	progs := make([]system.Program, p.Threads)
	for t := 0; t < p.Threads; t++ {
		t := t
		progs[t] = func(e cpu.Env) {
			m := w.maps[t]
			for i := 0; i < p.OpsPerThread; i++ {
				key := uint64(i)
				m.Put(e, 0, key, mwVal(key))
				if m.LoadFactor(e) > 3 {
					m.Resize(e, 0)
				}
			}
		}
	}
	return progs
}

func (w *resizeWorkload) Check(mem *memory.Memory) error {
	for t, m := range w.maps {
		img, err := RecoverMap(mem, m.Base())
		if err != nil {
			return fmt.Errorf("thread %d: %w", t, err)
		}
		for i := 0; i < len(img.Live); i++ {
			val, ok := img.Live[uint64(i)]
			if !ok {
				return fmt.Errorf("pds/hashresize: thread %d lost key %d but kept %d keys (hole after resize)", t, i, len(img.Live))
			}
			if val != mwVal(uint64(i)) {
				return fmt.Errorf("pds/hashresize: thread %d key %d has value %d, want %d", t, i, val, mwVal(uint64(i)))
			}
		}
	}
	return nil
}

// --- pds/skiplist ---

// listWorkload: all threads insert interleaved keys into one shared
// skiplist. The checker layers per-thread prefix contiguity on top of
// RecoverList's structural walk, so a partially built tower is fine but a
// lost middle insert is not.
type listWorkload struct {
	l *List
}

func (w *listWorkload) Name() string { return "pds/skiplist" }
func (w *listWorkload) Description() string {
	return "pds persistent skiplist: concurrent tower inserts, sorted-chain recovery + per-thread contiguity checked"
}
func (w *listWorkload) PaperPStores() float64 { return 0 }

func (w *listWorkload) Setup(mem *memory.Memory, arena *palloc.Arena, p workload.Params) {
	w.l = NewList(mem, arena, p.Threads, p.OpsPerThread+1)
}

func (w *listWorkload) Programs(p workload.Params) []system.Program {
	progs := make([]system.Program, p.Threads)
	for t := 0; t < p.Threads; t++ {
		t := t
		progs[t] = func(e cpu.Env) {
			for i := 0; i < p.OpsPerThread; i++ {
				// Interleave the key space across threads: neighbors in
				// the list are usually other threads' nodes, maximizing
				// cross-thread pred/succ races.
				key := uint64(i*p.Threads + t + 1)
				w.l.Insert(e, t, key, mwVal(key))
			}
		}
	}
	return progs
}

func (w *listWorkload) Check(mem *memory.Memory) error {
	img, err := RecoverList(mem, w.l.Base())
	if err != nil {
		return err
	}
	// Keys are sorted (RecoverList checked); verify values and per-thread
	// contiguous prefixes. Key k belongs to thread (k-1) mod Threads with
	// sequence (k-1) / Threads.
	threads := len(w.l.heaps)
	maxSeq := map[int]int{}
	count := map[int]int{}
	for i, key := range img.Keys {
		if img.Vals[i] != mwVal(key) {
			return fmt.Errorf("pds/skiplist: key %d has value %d, want %d", key, img.Vals[i], mwVal(key))
		}
		tid := int((key - 1)) % threads
		seq := int(key-1) / threads
		if seq > maxSeq[tid] {
			maxSeq[tid] = seq
		}
		count[tid]++
	}
	return checkContiguous("pds/skiplist", count, maxSeq)
}
