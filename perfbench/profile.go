package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The layers a CPU sample's self time is folded into: the simulator's
// packages below System.Run that spans cannot reach from outside, plus the
// Go runtime's scheduler and collector. Samples nowhere else land in
// runtime.other (the rest of the runtime), bench (this program: tracing,
// digests) or other (standard library and the remaining packages).
var profileLayers = []string{
	"engine", "cpu", "coherence", "cache", "memory", "bbpb", "memctrl",
	"persistency", "stats", "workload", "pds", "kvservice", "crashmc",
	"runtime.sched", "runtime.gc", "runtime.other", "bench", "other",
}

// gcFrames mark a sample as garbage-collector work wherever they appear
// on its stack.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.markroot", "runtime.gcDrain",
	"runtime.scanobject", "runtime.sweepone", "runtime.(*sweepLocked).sweep",
}

// schedFrames mark a runtime sample as goroutine scheduling and channel
// handoff when they appear among the runtime frames above its leaf.
var schedFrames = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m",
	"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.mcall",
	"runtime.chansend", "runtime.chanrecv", "runtime.selectgo",
	"runtime.gosched_m", "runtime.goschedImpl", "runtime.execute",
	"runtime.gogo", "runtime.wakep", "runtime.startm", "runtime.stopm",
	"runtime.runqget", "runtime.runqput", "runtime.runqsteal",
	"runtime.stealWork", "runtime.notesleep", "runtime.notewakeup",
	"runtime.futexsleep", "runtime.futexwakeup", "runtime.coroswitch",
	"runtime.goexit0", "runtime.newproc", "runtime.casgstatus",
	"runtime.send", "runtime.recv", "runtime.mPark", "runtime.handoffp",
}

// layerOf folds one sample, frames ordered leaf first, into a layer.
func layerOf(frames []string) string {
	for _, f := range frames {
		if hasAnyPrefix(f, gcFrames) {
			return "runtime.gc"
		}
	}
	for _, f := range frames {
		if !strings.HasPrefix(f, "runtime.") {
			break
		}
		if hasAnyPrefix(f, schedFrames) {
			return "runtime.sched"
		}
	}
	// Self time of the standard library and of runtime helpers (map
	// lookups, copies, allocation) belongs to the simulator layer that
	// called them.
	for _, f := range frames {
		if l, ok := packageLayer(f); ok {
			return l
		}
	}
	if len(frames) > 0 && strings.HasPrefix(frames[0], "runtime.") {
		return "runtime.other"
	}
	return "other"
}

// packageLayer maps a function in this module to its layer.
func packageLayer(fn string) (string, bool) {
	if strings.HasPrefix(fn, "main.") {
		return "bench", true
	}
	rest, ok := strings.CutPrefix(fn, "bbb/internal/")
	if !ok {
		return "", false
	}
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	for _, l := range profileLayers {
		if l == pkg {
			return l, true
		}
	}
	return "other", true
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if s == p || strings.HasPrefix(s, p+".") || strings.HasPrefix(s, p+"[") {
			return true
		}
	}
	return false
}

// foldProfile decodes a gzipped pprof CPU profile and adds each sample's
// CPU time, in nanoseconds, to its layer in into. It returns the number of
// samples.
func foldProfile(data []byte, into map[string]int64) (int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return 0, fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range p.samples {
		var frames []string
		for _, id := range s.locs {
			for _, fid := range p.locations[id] {
				frames = append(frames, p.strings[p.functions[fid]])
			}
		}
		v := s.values[0]
		if len(s.values) > 1 {
			v = s.values[1] // cpu nanoseconds beside the sample count
		}
		into[layerOf(frames)] += v
	}
	return len(p.samples), nil
}

// profile is the part of profile.proto the folding needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, leaf first
	functions map[uint64]int64    // function id -> name's string index
	strings   []string
}

type sample struct {
	locs   []uint64
	values []int64
}

var errProto = errors.New("malformed protobuf")

// parseProfile decodes the fields of profile.proto used above: Profile
// {2: sample, 4: location, 5: function, 6: string_table}, Sample {1:
// location_id, 2: value}, Location {1: id, 4: line}, Line {1:
// function_id} and Function {1: id, 2: name}.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(msg, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, v, sub)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, v, sub); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(s.values) == 0 {
				return errProto
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(sub, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case 5:
			var id uint64
			var name int64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range p.functions {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	for _, s := range p.samples {
		for _, id := range s.locs {
			fns, ok := p.locations[id]
			if !ok {
				return nil, errProto
			}
			for _, f := range fns {
				if _, ok := p.functions[f]; !ok {
					return nil, errProto
				}
			}
		}
	}
	return p, nil
}

// appendVarints appends a repeated varint field given either unpacked (v)
// or packed (packed != nil).
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := varint(packed)
		if n <= 0 {
			return errProto
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

// eachField calls f for every field of a message: varints as v, length-
// delimited fields as msg (non-nil, possibly empty). Fixed-width fields
// are skipped.
func eachField(b []byte, f func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			msg := b[n : n+int(l)] // non-nil: b is
			b = b[n+int(l):]
			if err := f(num, 0, msg); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// varint decodes a protobuf varint, returning n <= 0 on malformed input.
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
