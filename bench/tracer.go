package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one mission or request
// share an op identifier; parent is the id of the span that caused it
// (0 for a root).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     string `json:"op,omitempty"`
	// StartNS and EndNS are offsets from the start of the run.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span now and returns its id.
func (t *tracer) begin(name string, parent int, op string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Op: op, StartNS: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// add records a span that was timed by the caller and returns its id.
func (t *tracer) add(name string, parent int, op string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, ID: len(t.spans) + 1, Parent: parent, Op: op,
		StartNS: start.Sub(t.origin).Nanoseconds(), EndNS: end.Sub(t.origin).Nanoseconds(),
	})
	return len(t.spans)
}

// traceFile is the written form of a traced run.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Metrics  map[string]float64 `json:"metrics"`
	Spans    []span             `json:"spans"`
}

// write stores the spans and the run's metrics as JSON at path.
func (t *tracer) write(path, workload string, seed int64, res *result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	t.mu.Lock()
	b, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Metrics: res.values, Spans: t.spans})
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
