package cpu

import (
	"testing"

	"bbb/internal/memory"
)

func TestMultipleClwbsOneFence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExplicitPersist = true
	r := newRig(t, 1, cfg)
	addrs := []memory.Addr{r.nv(20), r.nv(21), r.nv(22)}
	r.cores[0].Start(func(e Env) {
		for _, a := range addrs {
			Store64(e, a, 1)
		}
		e.PersistBarrier(addrs...) // three clwbs, one fence
	})
	r.eng.Run()
	c := r.cores[0]
	if c.Stats.Get("core.clwbs") != 3 || c.Stats.Get("core.fences") != 1 {
		t.Fatalf("clwbs=%d fences=%d", c.Stats.Get("core.clwbs"), c.Stats.Get("core.fences"))
	}
	// All three lines durable after the fence.
	r.nvmm.CrashDrain()
	for _, a := range addrs {
		var buf [memory.LineSize]byte
		r.mem.PeekLine(a, &buf)
		if buf[0] != 1 {
			t.Fatalf("line %#x not durable after fence", a)
		}
	}
}

func TestFenceWithNothingOutstanding(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExplicitPersist = true
	r := newRig(t, 1, cfg)
	done := false
	r.cores[0].Start(func(e Env) {
		e.PersistBarrier() // zero clwbs, pure fence
		done = true
	})
	r.eng.Run()
	if !done {
		t.Fatal("empty fence never completed")
	}
}

func TestClwbWaitsForBufferedStoreToLine(t *testing.T) {
	// A clwb racing its own store in the SB must flush the store's value,
	// not the stale line.
	cfg := DefaultConfig()
	cfg.ExplicitPersist = true
	r := newRig(t, 1, cfg)
	a := r.nv(23)
	r.cores[0].Start(func(e Env) {
		Store64(e, a, 99) // still in SB when PersistBarrier issues
		e.PersistBarrier(a)
	})
	r.eng.Run()
	r.nvmm.CrashDrain()
	var buf [memory.LineSize]byte
	r.mem.PeekLine(a, &buf)
	if buf[0] != 99 {
		t.Fatalf("durable = %d, want 99 (clwb ordered before SB drain)", buf[0])
	}
}

func TestEpochBarrierCountsOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EpochMode = true
	r := newRig(t, 1, cfg)
	r.cores[0].Start(func(e Env) {
		Store64(e, r.nv(24), 1)
		e.PersistBarrier(r.nv(24), r.nv(25), r.nv(26)) // one marker regardless
	})
	r.eng.Run()
	if got := r.cores[0].Stats.Get("core.epoch_barriers"); got != 1 {
		t.Fatalf("epoch barriers = %d, want 1", got)
	}
	if r.cores[0].Stats.Get("core.clwbs") != 0 {
		t.Fatal("epoch mode must not issue clwb")
	}
}

func TestLoadSizesAndSignExtension(t *testing.T) {
	r := newRig(t, 1, DefaultConfig())
	a := r.nv(25)
	var v1, v2, v4 uint64
	r.cores[0].Start(func(e Env) {
		e.Store(a, 8, 0x8899AABBCCDDEEFF)
		v1 = e.Load(a, 1)
		v2 = e.Load(a, 2)
		v4 = e.Load(a, 4)
	})
	r.eng.Run()
	if v1 != 0xFF || v2 != 0xEEFF || v4 != 0xCCDDEEFF {
		t.Fatalf("v1=%#x v2=%#x v4=%#x", v1, v2, v4)
	}
}

func TestComputeZeroIsFree(t *testing.T) {
	r := newRig(t, 1, DefaultConfig())
	r.cores[0].Start(func(e Env) {
		e.Compute(0)
	})
	r.eng.Run()
	if r.cores[0].Stats.Get("core.compute_cycles") != 0 {
		t.Fatal("Compute(0) charged cycles")
	}
	if !r.cores[0].Done() {
		t.Fatal("program not done")
	}
}

func TestStoresToSameLineCoalesceInSB(t *testing.T) {
	r := newRig(t, 1, DefaultConfig())
	a := r.nv(26)
	r.cores[0].Start(func(e Env) {
		// Bytes within one line: each is its own SB entry (no SB merging
		// modeled) but all drain correctly in order.
		for i := 0; i < 8; i++ {
			e.Store(a+memory.Addr(i), 1, uint64(0xF0+i))
		}
		if got := e.Load(a, 8); got != 0xF7F6F5F4F3F2F1F0 {
			t.Errorf("composed = %#x", got)
		}
	})
	r.eng.Run()
}

func TestDoubleStartPanics(t *testing.T) {
	// Starting a core twice is unsupported (the second Start would replace
	// the first program's coroutine). We assert Done stays sane with a
	// single Start and a second core unstarted.
	r := newRig(t, 2, DefaultConfig())
	r.cores[0].Start(func(e Env) { Store64(e, r.nv(27), 1) })
	r.eng.Run()
	if !r.cores[0].Done() {
		t.Fatal("core 0 should be done")
	}
	if r.cores[1].Done() {
		t.Fatal("unstarted core cannot be done")
	}
}

func TestStorePrefetchOverlapsMisses(t *testing.T) {
	// A stream of stores to fresh lines: with prefetching, the
	// write-allocate fetches overlap queued drains, so the run is faster
	// and the functional outcome identical.
	run := func(prefetch bool) (uint64, uint64) {
		cfg := DefaultConfig()
		cfg.StorePrefetch = prefetch
		r := newRig(t, 1, cfg)
		const n = 200
		r.cores[0].Start(func(e Env) {
			for i := uint64(0); i < n; i++ {
				Store64(e, r.nv(100+i), i)
			}
		})
		r.eng.Run()
		var last uint64
		r.h.Load(0, r.nv(100+n-1), 8, func(v uint64) { last = v })
		r.eng.Run()
		return r.cores[0].FinishedAt(), last
	}
	base, v1 := run(false)
	pf, v2 := run(true)
	if v1 != v2 || v1 != 199 {
		t.Fatalf("functional mismatch: %d vs %d", v1, v2)
	}
	if float64(pf) > 0.8*float64(base) {
		t.Fatalf("prefetching barely helped: %d vs %d cycles", pf, base)
	}
	t.Logf("store stream: %d cycles without prefetch, %d with (%.1fx)", base, pf, float64(base)/float64(pf))
}

func TestRelaxedSBDrainFunctionallyCorrect(t *testing.T) {
	// Relaxed drain reorders across lines but never within one, so a
	// single-threaded program's loads always see its own stores correctly.
	cfg := DefaultConfig()
	cfg.RelaxedSBDrain = true
	r := newRig(t, 1, cfg)
	r.cores[0].Start(func(e Env) {
		for i := uint64(0); i < 200; i++ {
			a := r.nv(200 + i%10)
			Store64(e, a, i)
			if v := Load64(e, a); v != i {
				t.Errorf("i=%d: read %d", i, v)
				return
			}
		}
	})
	r.eng.Run()
	if !r.cores[0].Done() {
		t.Fatal("program did not finish")
	}
	// Final values: last write per line wins.
	for k := uint64(0); k < 10; k++ {
		want := uint64(190 + k)
		var got uint64
		r.h.Load(0, r.nv(200+k), 8, func(v uint64) { got = v })
		r.eng.Run()
		if got != want {
			t.Fatalf("line %d = %d, want %d", k, got, want)
		}
	}
}

func TestRelaxedSBDrainReordersAcrossLines(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RelaxedSBDrain = true
	r := newRig(t, 1, cfg)
	r.cores[0].Start(func(e Env) {
		// Prime a line so it is locally writable, then alternate a missing
		// line (slow) with the primed one (fast): the fast ones can drain
		// ahead of the slow head.
		Store64(e, r.nv(300), 1)
		e.Compute(5_000) // let the prime drain and settle
		for i := uint64(0); i < 30; i++ {
			Store64(e, r.nv(400+i), i) // misses
			Store64(e, r.nv(300), i)   // hits the writable line
		}
	})
	r.eng.Run()
	if r.cores[0].Stats.Get("core.sb_reordered_drains") == 0 {
		t.Fatal("relaxed drain never reordered")
	}
}
