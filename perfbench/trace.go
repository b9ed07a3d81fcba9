package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one call into a layer. Spans of one operation (a simulation run
// or a crash point) share ID; the pass's root span has ID -1.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // index into the tracer's spans, -1 for a root
	Pass   int    `json:"pass"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them when the benchmark ends.
type tracer struct {
	epoch time.Time
	pass  int
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) open(name string, id int) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Pass: t.pass, Start: int64(time.Since(t.epoch))})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) close(i int) {
	t.spans[i].End = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

// unwind closes the spans a panic left open, down to depth.
func (t *tracer) unwind(depth int) {
	for len(t.stack) > depth {
		t.close(t.stack[len(t.stack)-1])
	}
}

// selfTimes returns, per span name, the spans' durations minus the part
// their children cover, over the spans of pass.
func (t *tracer) selfTimes(pass int) map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		if s.Pass != pass {
			continue
		}
		d := time.Duration(s.End - s.Start)
		self[s.Name] += d
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= d
		}
	}
	return self
}

// write dumps every span as one JSON object per line, after a first line
// naming the host the times were taken on.
func (t *tracer) write(path, host string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]string{"host": host}); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
