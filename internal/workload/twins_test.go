package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"bbb/internal/cpu"
	"bbb/internal/engine"
	"bbb/internal/memory"
	"bbb/internal/palloc"
)

// twinTraces holds, per workload/mode/seed, the machine-op count and FNV-64a
// digest of the traces the retired compiled-IR twins produced. Each cpu.Env
// program was diffed op for op against its twin until the twins were
// deleted, so these are also the Env programs' traces at that point.
var twinTraces = map[string]struct {
	ops    int
	digest uint64
}{
	"rtree/battery/seed1":       {12444, 0x79e3f881c0d3de2e},
	"rtree/battery/seed5":       {12549, 0x437b4a3f4fcb8045},
	"rtree/epoch/seed1":         {12866, 0xc4ef2d49a9a34fde},
	"rtree/epoch/seed5":         {12956, 0x1a51f5f51547d98b},
	"rtree/explicit/seed1":      {13448, 0xaeace61f099a4327},
	"rtree/explicit/seed5":      {13523, 0x4f6fffcd987f86db},
	"ctree/battery/seed1":       {11149, 0x4004887d6e8a3202},
	"ctree/battery/seed5":       {11207, 0x71e4edcb61eb3332},
	"ctree/epoch/seed1":         {11469, 0x46cf2992db862b26},
	"ctree/epoch/seed5":         {11527, 0xdb116caa391a061e},
	"ctree/explicit/seed1":      {11945, 0x1b667660dc68039e},
	"ctree/explicit/seed5":      {12003, 0x132bdb1aef72086a},
	"hashmap/battery/seed1":     {13760, 0x8a0ea883e1af1b69},
	"hashmap/battery/seed5":     {13760, 0x5a6e0216a5e400c5},
	"hashmap/epoch/seed1":       {14080, 0xde68a821a7a9dde5},
	"hashmap/epoch/seed5":       {14080, 0x001a3a7970e26b91},
	"hashmap/explicit/seed1":    {14400, 0x1e7239478d678117},
	"hashmap/explicit/seed5":    {14400, 0x6427c35780549dc0},
	"mutateNC/battery/seed1":    {1120, 0xfa1f635863ac40bc},
	"mutateNC/battery/seed5":    {1120, 0x025e8f01acf627f9},
	"mutateNC/epoch/seed1":      {1280, 0x02a63a8acd92ecb2},
	"mutateNC/epoch/seed5":      {1280, 0xe1991db07477e6bf},
	"mutateNC/explicit/seed1":   {1440, 0x305a3d690e022c5e},
	"mutateNC/explicit/seed5":   {1440, 0x2750c57483b72323},
	"mutateC/battery/seed1":     {1120, 0xa8e5f79c508c4ece},
	"mutateC/battery/seed5":     {1120, 0xba079ccf518e8e39},
	"mutateC/epoch/seed1":       {1280, 0x1b89e3cb494ea7e0},
	"mutateC/epoch/seed5":       {1280, 0xed27726a7c76ce0b},
	"mutateC/explicit/seed1":    {1440, 0x6b815d60137970ee},
	"mutateC/explicit/seed5":    {1440, 0x616ab4726646fb0c},
	"swapNC/battery/seed1":      {1920, 0xd6867bc54a72a193},
	"swapNC/battery/seed5":      {1920, 0x9181929c5c1ef88e},
	"swapNC/epoch/seed1":        {2080, 0xfc1dabacf1ef3817},
	"swapNC/epoch/seed5":        {2080, 0xc8981f1514d20386},
	"swapNC/explicit/seed1":     {2400, 0xf0ee4c312251dae3},
	"swapNC/explicit/seed5":     {2400, 0x900751b068a93217},
	"swapC/battery/seed1":       {1920, 0x75e2d28ac1e81f15},
	"swapC/battery/seed5":       {1920, 0xa7fd7521105874b0},
	"swapC/epoch/seed1":         {2080, 0x1ce494237e76b3e9},
	"swapC/epoch/seed5":         {2080, 0x54d0ec27b30dec58},
	"swapC/explicit/seed1":      {2400, 0xe0b2cfd9aea3a06b},
	"swapC/explicit/seed5":      {2400, 0xc682016a5238c7a9},
	"linkedlist/battery/seed1":  {1284, 0xe8b14559f21f5e11},
	"linkedlist/battery/seed5":  {1284, 0x66f25435c6f9d89a},
	"linkedlist/epoch/seed1":    {1604, 0x08a1ac8a89b09899},
	"linkedlist/epoch/seed5":    {1604, 0x555939128e03a692},
	"linkedlist/explicit/seed1": {1924, 0xc8ac8f613390fc63},
	"linkedlist/explicit/seed5": {1924, 0x2b0a57ce41363f34},
	"wal/battery/seed1":         {3680, 0x6afe469248e3eca0},
	"wal/battery/seed5":         {3680, 0xbbdb8e056ede7ca0},
	"wal/epoch/seed1":           {4000, 0x95e25f51f63c3578},
	"wal/epoch/seed5":           {4000, 0x418f0874b63b102c},
	"wal/explicit/seed1":        {4320, 0xf83367fcff6790ca},
	"wal/explicit/seed5":        {4320, 0x78c39a6a9fe59420},
}

// twinModes are the three persist-expansion modes a program's barriers
// lower to (battery-backed, epoch, explicit flush+fence).
var twinModes = []struct {
	name string
	cfg  traceCfg
}{
	{"battery", traceCfg{}},
	{"epoch", traceCfg{EpochMode: true}},
	{"explicit", traceCfg{ExplicitPersist: true}},
}

// TestIRTwinsPinned pins every workload that had a compiled-IR twin to the
// machine-op sequence that twin performed — same loads, stores, flushes,
// fences, epochs and compute, same addresses, sizes and values, in the same
// order. pressurelint and persistlint analyze the cpu.Env programs' source,
// and the recorded pressure_bounds.json sizings were derived while the two
// paths were held identical, so a drift here means those certificates and
// the goldens must be re-derived deliberately, not silently.
//
// Programs execute functionally (no engine, no caches): each thread runs to
// completion against the post-Setup memory image, so the check is a pure
// trace digest of the program logic under all three modes.
func TestIRTwinsPinned(t *testing.T) {
	names := []string{"rtree", "ctree", "hashmap", "mutateNC", "mutateC",
		"swapNC", "swapC", "linkedlist", "wal"}
	for _, name := range names {
		for _, mode := range twinModes {
			for _, seed := range []int64{1, 5} {
				key := fmt.Sprintf("%s/%s/seed%d", name, mode.name, seed)
				t.Run(key, func(t *testing.T) {
					ops, digest := envTraceDigest(t, name, mode.cfg, seed)
					want, ok := twinTraces[key]
					if !ok {
						t.Fatalf("no recorded twin trace for %s", key)
					}
					if ops != want.ops || digest != want.digest {
						t.Fatalf("trace drifted from the recorded twin: %d ops digest %#x, want %d ops digest %#x",
							ops, digest, want.ops, want.digest)
					}
				})
			}
		}
	}
}

// envTraceDigest runs every thread of the named workload through recEnv and
// returns the total machine-op count and one digest over all threads'
// traces, thread by thread.
func envTraceDigest(t *testing.T, name string, cfg traceCfg, seed int64) (int, uint64) {
	t.Helper()
	w, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Threads: 4, OpsPerThread: 40, Seed: seed}
	layout := memory.DefaultLayout()
	mem := memory.New(layout)
	w.Setup(mem, palloc.FromLayout(layout), p)
	progs := w.Programs(p)
	if len(progs) != p.Threads {
		t.Fatalf("program count %d, want %d", len(progs), p.Threads)
	}
	h := fnv.New64a()
	ops := 0
	for th, prog := range progs {
		trace := runEnvTwin(prog, th, mem, cfg)
		ops += len(trace)
		for _, op := range trace {
			fmt.Fprintf(h, "%d %s %#x %d %#x %#x\n", th, op.kind, uint64(op.addr), op.size, op.val, op.old)
		}
	}
	return ops, h.Sum64()
}

// traceCfg selects how recEnv expands persist barriers; its fields are the
// switches of the same name in cpu.Config.
type traceCfg struct{ EpochMode, ExplicitPersist bool }

// mop is one recorded machine operation.
type mop struct {
	kind string
	addr memory.Addr
	size int
	val  uint64 // store/CAS-new value, load result, compute cycles
	old  uint64 // CAS expected
}

// funcMem gives the recorder flat little-endian reads and writes straight
// into a memory.Memory, no timing.
type funcMem struct{ m *memory.Memory }

func (f funcMem) load(a memory.Addr, size int) uint64 {
	var b [8]byte
	copy(b[:size], f.m.Peek(a, size))
	return binary.LittleEndian.Uint64(b[:])
}

func (f funcMem) store(a memory.Addr, size int, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	f.m.Poke(a, b[:size])
}

// recEnv is the cpu.Env recorder: it executes a program body inline (the
// program never blocks because every operation completes immediately) and
// expands PersistBarrier/Flush/Fence with exactly env.persistBarrier's mode
// logic.
type recEnv struct {
	funcMem
	id    int
	cfg   traceCfg
	trace []mop
}

func (e *recEnv) CoreID() int { return e.id }

func (e *recEnv) Load(addr memory.Addr, size int) uint64 {
	v := e.load(addr, size)
	e.trace = append(e.trace, mop{kind: "load", addr: addr, size: size, val: v})
	return v
}

func (e *recEnv) Store(addr memory.Addr, size int, val uint64) {
	e.store(addr, size, val)
	e.trace = append(e.trace, mop{kind: "store", addr: addr, size: size, val: val})
}

func (e *recEnv) PersistBarrier(addrs ...memory.Addr) {
	if e.cfg.EpochMode {
		e.trace = append(e.trace, mop{kind: "epoch"})
		return
	}
	if !e.cfg.ExplicitPersist {
		return
	}
	for _, a := range addrs {
		e.trace = append(e.trace, mop{kind: "flush", addr: a})
	}
	e.trace = append(e.trace, mop{kind: "fence"})
}

func (e *recEnv) Flush(addr memory.Addr) {
	if e.cfg.ExplicitPersist {
		e.trace = append(e.trace, mop{kind: "flush", addr: addr})
	}
}

func (e *recEnv) Fence() {
	if e.cfg.EpochMode {
		e.trace = append(e.trace, mop{kind: "epoch"})
		return
	}
	if e.cfg.ExplicitPersist {
		e.trace = append(e.trace, mop{kind: "fence"})
	}
}

// Now returns a pseudo-clock (the trace length): the recorder has no real
// timeline, it only needs a deterministic monotonic value.
func (e *recEnv) Now() engine.Cycle { return engine.Cycle(len(e.trace)) }

func (e *recEnv) Compute(n engine.Cycle) {
	if n == 0 {
		return
	}
	e.trace = append(e.trace, mop{kind: "compute", val: uint64(n)})
}

func (e *recEnv) CompareAndSwap(addr memory.Addr, size int, old, new uint64) (uint64, bool) {
	prev := e.load(addr, size)
	if prev == old {
		e.store(addr, size, new)
	}
	e.trace = append(e.trace, mop{kind: "cas", addr: addr, size: size, val: new, old: old})
	return prev, prev == old
}

func runEnvTwin(prog func(cpu.Env), thread int, mem *memory.Memory, cfg traceCfg) []mop {
	e := &recEnv{funcMem: funcMem{mem}, id: thread, cfg: cfg}
	prog(e)
	return e.trace
}
