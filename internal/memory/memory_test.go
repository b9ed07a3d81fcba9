package memory

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestLayoutRegions(t *testing.T) {
	l := DefaultLayout()
	if got := l.RegionOf(0); got != RegionDRAM {
		t.Fatalf("RegionOf(0) = %v", got)
	}
	if got := l.RegionOf(l.NVMMBase); got != RegionNVMM {
		t.Fatalf("RegionOf(NVMMBase) = %v", got)
	}
	if got := l.RegionOf(l.NVMMBase + l.NVMMSize - 1); got != RegionNVMM {
		t.Fatalf("RegionOf(last NVMM byte) = %v", got)
	}
	if !l.Persistent(l.PersistentBase) {
		t.Fatal("PersistentBase should be persistent")
	}
	if l.Persistent(l.DRAMBase) {
		t.Fatal("DRAM should not be persistent")
	}
}

func TestRegionOfOutsidePanics(t *testing.T) {
	l := DefaultLayout()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range address did not panic")
		}
	}()
	l.RegionOf(l.NVMMBase + l.NVMMSize)
}

func TestLineHelpers(t *testing.T) {
	if LineAddr(0x12345) != 0x12340 {
		t.Fatalf("LineAddr = %#x", LineAddr(0x12345))
	}
	if LineOffset(0x12345) != 5 {
		t.Fatalf("LineOffset = %d", LineOffset(0x12345))
	}
}

func TestReadWriteLine(t *testing.T) {
	m := New(DefaultLayout())
	var src, dst [LineSize]byte
	for i := range src {
		src[i] = byte(i)
	}
	a := m.Layout().NVMMBase + 128
	m.WriteLine(a, &src)
	m.ReadLine(a, &dst)
	if src != dst {
		t.Fatal("line round-trip mismatch")
	}
	if m.Writes[RegionNVMM] != 1 || m.Reads[RegionNVMM] != 1 {
		t.Fatalf("accounting = writes %d reads %d", m.Writes[RegionNVMM], m.Reads[RegionNVMM])
	}
	if m.Writes[RegionDRAM] != 0 {
		t.Fatal("DRAM accounting touched by NVMM access")
	}
}

func TestUnalignedPanics(t *testing.T) {
	m := New(DefaultLayout())
	var l [LineSize]byte
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned WriteLine did not panic")
		}
	}()
	m.WriteLine(3, &l)
}

func TestUntouchedReadsZero(t *testing.T) {
	m := New(DefaultLayout())
	var dst [LineSize]byte
	dst[0] = 0xFF
	m.PeekLine(64, &dst)
	for i, b := range dst {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
	if m.TouchedPages() != 0 {
		t.Fatal("peek should not materialize pages")
	}
}

func TestPokePeekCrossPage(t *testing.T) {
	m := New(DefaultLayout())
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	base := Addr(PageSize - 100)
	m.Poke(base, data)
	got := m.Peek(base, len(data))
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page Poke/Peek mismatch")
	}
	if m.TouchedPages() != 4 {
		t.Fatalf("TouchedPages = %d, want 4", m.TouchedPages())
	}
}

func TestPeek64MatchesPeek(t *testing.T) {
	m := New(DefaultLayout())
	nvmm := m.Layout().NVMMBase
	data := make([]byte, 2*PageSize)
	for i := range data {
		data[i] = byte(i*13 + 1)
	}
	m.Poke(nvmm, data)
	// A word straddling a materialized and an unmaterialized page.
	m.Poke(nvmm+4*PageSize-4, []byte{1, 2, 3, 4})
	for _, tc := range []struct {
		name string
		a    Addr
	}{
		{"in-page", nvmm + 96},
		{"unaligned in-page", nvmm + 1000 + 3},
		{"page-crossing", nvmm + PageSize - 3},
		{"unmaterialized", nvmm + 8*PageSize + 64},
		{"crossing into unmaterialized", nvmm + 4*PageSize - 4},
	} {
		want := binary.LittleEndian.Uint64(m.Peek(tc.a, 8))
		if got := m.Peek64(tc.a); got != want {
			t.Errorf("%s: Peek64(%#x) = %#x, want %#x", tc.name, tc.a, got, want)
		}
	}
	if m.TouchedPages() != 3 {
		t.Fatalf("TouchedPages = %d, want 3: reads must not materialize pages", m.TouchedPages())
	}
	m.Poke64(nvmm+PageSize-5, 0x0102030405060708)
	if got := m.Peek64(nvmm + PageSize - 5); got != 0x0102030405060708 {
		t.Fatalf("page-crossing Poke64/Peek64 round trip = %#x", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { m.Peek64(nvmm + 96) }); allocs != 0 {
		t.Fatalf("in-page Peek64 allocates %v times per call, want 0", allocs)
	}
}

// Property: any sequence of line writes is readable back, last-write-wins.
func TestPropertyLastWriteWins(t *testing.T) {
	l := DefaultLayout()
	f := func(lines []uint16, vals []byte) bool {
		m := New(l)
		last := map[Addr]byte{}
		for i, ln := range lines {
			a := l.NVMMBase + Addr(ln)*LineSize
			var buf [LineSize]byte
			v := byte(i)
			if i < len(vals) {
				v = vals[i]
			}
			for j := range buf {
				buf[j] = v
			}
			m.WriteLine(a, &buf)
			last[a] = v
		}
		for a, v := range last {
			var buf [LineSize]byte
			m.PeekLine(a, &buf)
			for _, b := range buf {
				if b != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
