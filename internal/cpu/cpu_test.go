package cpu

import (
	"testing"

	"bbb/internal/coherence"
	"bbb/internal/engine"
	"bbb/internal/memctrl"
	"bbb/internal/memory"
)

type rig struct {
	eng   *engine.Engine
	mem   *memory.Memory
	nvmm  *memctrl.Controller
	h     *coherence.Hierarchy
	cores []*Core
}

func newRig(t testing.TB, n int, ccfg Config) *rig {
	t.Helper()
	eng := engine.New()
	mem := memory.New(memory.DefaultLayout())
	dram := memctrl.New(memctrl.DefaultDRAM(), eng, mem)
	nvmm := memctrl.New(memctrl.DefaultNVMM(), eng, mem)
	hcfg := coherence.DefaultConfig()
	hcfg.Cores = n
	hcfg.L1Size = 4096
	hcfg.L2Size = 32 * 1024
	h := coherence.New(hcfg, eng, mem.Layout(), dram, nvmm, coherence.NullPolicy{})
	r := &rig{eng: eng, mem: mem, nvmm: nvmm, h: h}
	for i := 0; i < n; i++ {
		r.cores = append(r.cores, New(i, ccfg, eng, h))
	}
	t.Cleanup(func() {
		for _, c := range r.cores {
			c.Stop()
		}
	})
	return r
}

func (r *rig) nv(n uint64) memory.Addr {
	return r.mem.Layout().PersistentBase + memory.Addr(n)*memory.LineSize
}

func TestSingleCoreProgram(t *testing.T) {
	r := newRig(t, 1, DefaultConfig())
	a := r.nv(0)
	var loaded uint64
	r.cores[0].Start(func(e Env) {
		Store64(e, a, 12345)
		loaded = Load64(e, a)
		e.Compute(100)
	})
	r.eng.Run()
	if !r.cores[0].Done() {
		t.Fatal("program did not finish")
	}
	if loaded != 12345 {
		t.Fatalf("loaded = %d (store-to-load forwarding broken?)", loaded)
	}
	if r.cores[0].FinishedAt() < 100 {
		t.Fatalf("finished at %d, Compute(100) not charged", r.cores[0].FinishedAt())
	}
	if r.cores[0].Stats.Get("core.loads") != 1 || r.cores[0].Stats.Get("core.stores") != 1 {
		t.Fatal("op counts wrong")
	}
}

func TestStoreBufferForwarding(t *testing.T) {
	r := newRig(t, 1, DefaultConfig())
	a := r.nv(1)
	r.cores[0].Start(func(e Env) {
		Store64(e, a, 7)
		if v := Load64(e, a); v != 7 {
			t.Errorf("forwarded value = %d", v)
		}
	})
	r.eng.Run()
	if r.cores[0].Stats.Get("core.sb_forwards") == 0 {
		t.Fatal("load did not forward from SB")
	}
}

func TestOverlapStallDrainsSB(t *testing.T) {
	r := newRig(t, 1, DefaultConfig())
	a := r.nv(2)
	var got uint64
	r.cores[0].Start(func(e Env) {
		e.Store(a, 8, 0x1111111122222222)
		got = e.Load(a+2, 2) // partial overlap: must see the store's bytes
	})
	r.eng.Run()
	if got != 0x2222 { // little-endian bytes 2-3 of the stored value
		t.Fatalf("overlapping load = %#x, want 0x2222", got)
	}
	if r.cores[0].Stats.Get("core.sb_overlap_stalls") == 0 {
		t.Fatal("overlap stall not taken")
	}
}

func TestSBFullBackpressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SBEntries = 2
	r := newRig(t, 1, cfg)
	r.cores[0].Start(func(e Env) {
		for i := uint64(0); i < 40; i++ {
			Store64(e, r.nv(i), i)
		}
	})
	r.eng.Run()
	if !r.cores[0].Done() {
		t.Fatal("program did not finish")
	}
	if r.cores[0].Stats.Get("core.sb_full_stalls") == 0 {
		t.Fatal("expected SB-full stalls with a 2-entry SB")
	}
	if r.cores[0].StallCycles == 0 {
		t.Fatal("stall cycles not accounted")
	}
}

func TestProgramOrderStores(t *testing.T) {
	r := newRig(t, 1, DefaultConfig())
	a, b := r.nv(3), r.nv(4)
	r.cores[0].Start(func(e Env) {
		for i := uint64(1); i <= 50; i++ {
			Store64(e, a, i)
			Store64(e, b, i)
		}
	})
	r.eng.Run()
	// After the run both lines carry the final value in the hierarchy.
	var v uint64
	done := false
	r.h.Load(0, a, 8, func(x uint64) { v = x; done = true })
	r.eng.Run()
	if !done || v != 50 {
		t.Fatalf("a = %d, want 50", v)
	}
}

func TestTwoCoresCommunicate(t *testing.T) {
	r := newRig(t, 2, DefaultConfig())
	flag, data := r.nv(5), r.nv(6)
	var observed uint64
	r.cores[0].Start(func(e Env) {
		Store64(e, data, 999)
		Store64(e, flag, 1)
	})
	r.cores[1].Start(func(e Env) {
		for Load64(e, flag) != 1 {
			e.Compute(50)
		}
		observed = Load64(e, data)
	})
	r.eng.Run()
	if observed != 999 {
		t.Fatalf("consumer read %d, want 999 (store visibility order)", observed)
	}
}

func TestPersistBarrierFreeWithoutExplicitPersist(t *testing.T) {
	r := newRig(t, 1, DefaultConfig()) // ExplicitPersist=false (BBB/eADR)
	a := r.nv(7)
	r.cores[0].Start(func(e Env) {
		Store64(e, a, 1)
		e.PersistBarrier(a)
	})
	r.eng.Run()
	if r.cores[0].Stats.Get("core.clwbs") != 0 || r.cores[0].Stats.Get("core.fences") != 0 {
		t.Fatal("PersistBarrier should be free when ExplicitPersist is off")
	}
}

func TestPersistBarrierPMEM(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExplicitPersist = true
	r := newRig(t, 1, cfg)
	a := r.nv(8)
	r.cores[0].Start(func(e Env) {
		Store64(e, a, 321)
		e.PersistBarrier(a)
	})
	r.eng.Run()
	c := r.cores[0]
	if c.Stats.Get("core.clwbs") != 1 || c.Stats.Get("core.fences") != 1 {
		t.Fatalf("clwbs=%d fences=%d, want 1/1", c.Stats.Get("core.clwbs"), c.Stats.Get("core.fences"))
	}
	// The store is durable without any cache/bbPB crash drain: WPQ has it.
	r.nvmm.CrashDrain()
	var buf [memory.LineSize]byte
	r.mem.PeekLine(a, &buf)
	if got := uint64(buf[0]) | uint64(buf[1])<<8; got != 321 {
		t.Fatalf("durable value = %d, want 321", got)
	}
}

func TestPersistBarrierOrdersAcrossStores(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExplicitPersist = true
	r := newRig(t, 1, cfg)
	a, b := r.nv(9), r.nv(10)
	r.cores[0].Start(func(e Env) {
		Store64(e, a, 1)
		e.PersistBarrier(a)
		Store64(e, b, 2) // must not persist before a
	})
	r.eng.Run()
	// By the time the fence completed, a was durable. Verify a reached the
	// persistence domain (WPQ insert happened => nvmm writes counted).
	if r.nvmm.Stats.Get("nvmm.writes") == 0 {
		t.Fatal("fence completed without any NVMM write")
	}
}

func TestCrashDrainSB(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatteryBackedSB = true
	r := newRig(t, 1, cfg)
	a := r.nv(11)
	started := false
	r.cores[0].Start(func(e Env) {
		started = true
		for i := uint64(0); i < 100; i++ {
			Store64(e, a+memory.Addr((i%8)*8), i)
		}
	})
	// Run briefly then crash with stores still buffered.
	r.eng.RunUntil(40)
	if !started {
		t.Fatal("program never started")
	}
	c := r.cores[0]
	if c.SBOccupancy() == 0 {
		t.Skip("no buffered stores at the crash point")
	}
	img := map[memory.Addr][memory.LineSize]byte{}
	n := c.CrashDrainSB(
		func(la memory.Addr, buf *[memory.LineSize]byte) { *buf = img[la] },
		func(la memory.Addr, buf *[memory.LineSize]byte) { img[la] = *buf },
		func(memory.Addr) bool { return true },
	)
	if n == 0 {
		t.Fatal("CrashDrainSB drained nothing")
	}
	if c.SBOccupancy() != 0 {
		t.Fatal("SB not empty after crash drain")
	}
}

func TestManyCoresFinishDeterministically(t *testing.T) {
	run := func() []engine.Cycle {
		r := newRig(t, 4, DefaultConfig())
		for i := 0; i < 4; i++ {
			i := i
			r.cores[i].Start(func(e Env) {
				for j := uint64(0); j < 50; j++ {
					Store64(e, r.nv(uint64(i)*64+j%16), j)
					if j%5 == 0 {
						Load64(e, r.nv(uint64((i+1)%4)*64))
					}
				}
			})
		}
		r.eng.Run()
		var out []engine.Cycle
		for _, c := range r.cores {
			if !c.Done() {
				t.Fatal("core not done")
			}
			out = append(out, c.FinishedAt())
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic finish times: %v vs %v", a, b)
		}
	}
}
