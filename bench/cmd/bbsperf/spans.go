package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded from outside the
// program under test: the benchmark opens it before calling into a layer
// and closes it when the call returns.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Op     int    `json:"op"`     // spans of one operation share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was made
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced runs go.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id, 0 on a nil recorder.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(r.spans)
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
}

// add records a span whose interval is already known, such as a server
// stage reconstructed from a Server-Timing header.
func (r *recorder) add(name string, parent, op int, start, end int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Start: start, End: end})
}

// startOf returns when the span opened, for laying reconstructed children
// out inside it.
func (r *recorder) startOf(id int) int64 {
	if r == nil || id == 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1].Start
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval its direct children cover. Overlapping children are counted once.
func selfTimes(spans []span) map[int]int64 {
	type interval struct{ start, end int64 }
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		covered := int64(0)
		at := s.Start // the part of the span before this is accounted for
		for _, k := range kids {
			lo, hi := max(k.start, at), min(k.end, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// spanFile is what the traced run writes at exit.
type spanFile struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Spans    []span           `json:"spans"`
	SelfNs   map[string]int64 `json:"self_ns_by_name"`
}

// write stores the spans and their self time summed by span name.
func (r *recorder) write(path, workload string, seed int64) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	byName := make(map[string]int64)
	self := selfTimes(spans)
	for _, s := range spans {
		byName[s.Name] += self[s.ID]
	}
	data, err := json.Marshal(spanFile{Workload: workload, Seed: seed, Spans: spans, SelfNs: byName})
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating span directory: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
