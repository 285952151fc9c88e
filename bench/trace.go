package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the layer's public functions. Spans of one request, step
// or experiment share Trace; Parent names the span that caused this one.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Bytes is the response size of an HTTP handler span.
	Bytes int64 `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs share the traced code path.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	last  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the tracer clock: nanoseconds since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// at converts a wall-clock instant to the tracer clock.
func (t *tracer) at(w time.Time) int64 { return int64(w.Sub(t.t0)) }

// id reserves a fresh span or trace identifier.
func (t *tracer) id() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.last++
	return t.last
}

// add records s, assigning it an ID unless it carries one.
func (t *tracer) add(s span) uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ID == 0 {
		t.last++
		s.ID = t.last
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// all returns the spans recorded so far.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// update lets f edit the recorded spans in place.
func (t *tracer) update(f func([]span)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f(t.spans)
}

// write saves the spans as JSON lines, in start order.
func (t *tracer) write(path string) error {
	spans := t.all()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// selfTime is the part of parent's interval that none of its children
// cover. Children may overlap each other and may stick out of the
// parent; only the covered part of the parent is subtracted.
func selfTime(parent span, children []span) time.Duration {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := max(c.Start, parent.Start), min(c.End, parent.End)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered := int64(0)
	curS, curE := int64(0), int64(-1)
	for _, x := range iv {
		if x[0] > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if curE > curS {
		covered += curE - curS
	}
	return parent.dur() - time.Duration(covered)
}
