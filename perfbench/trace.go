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

// span is one benchmark-owned interval around a call into a layer's public
// API. Parent indexes the enclosing span (-1 for a root); Req names the
// request (fig14 cell index or engine request id) the work belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the timed (untraced) passes run: every method is a
// no-op on nil so call sites need no branches.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerTime is the total and self time of every span with one name.
type layerTime struct {
	count       int
	total, self time.Duration
}

// summarize folds the spans by name. A span's self time is its duration
// minus the union of the intervals its children cover.
func (t *tracer) summarize() map[string]layerTime {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for i, s := range t.spans {
		dur := s.End - s.Start
		lt := out[s.Name]
		lt.count++
		lt.total += time.Duration(dur)
		lt.self += time.Duration(dur - covered(children[i]))
		out[s.Name] = lt
	}
	return out
}

// covered returns the length of the union of the spans' intervals.
func covered(spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, hi int64 = 0, -1
	for _, s := range spans {
		lo := s.Start
		if lo < hi {
			lo = hi
		}
		if s.End > lo {
			total += s.End - lo
		}
		if s.End > hi {
			hi = s.End
		}
	}
	return total
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
