package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer of the program: its name, start and
// end in nanoseconds since the run began, and the span that caused it
// (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays only a nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// len reports the number of recorded spans.
func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as one JSON array at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
