package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one traced layer call. Spans of one op share the op id; setup
// spans carry op id -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const setupOp = -1

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced path calls begin/end at no cost. The benchmark drives the layers
// from one goroutine, so spans nest strictly.
type tracer struct {
	t0    time.Time
	op    int
	stack []int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: setupOp} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// durations returns the durations in seconds of the spans with the given
// name, from setup (setup == true) or from the timed ops.
func (t *tracer) durations(name string, setup bool) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (s.Op == setupOp) == setup {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// write stores the spans as JSON in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
