package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer:
// the benchmark wraps the public function it calls. Parent is the index
// of the enclosing span (-1 for a root); Op groups the spans of one
// operation.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op_id"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine only (the traced pass is single-threaded), so the open-span
// stack gives every span its parent. A nil *tracer records nothing: the
// untraced pass runs the same code, and the difference between the two
// passes is the tracing overhead.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextOp starts a new operation: spans recorded from now on carry its ID.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// do times fn as one span of the given layer.
func (t *tracer) do(layer, name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Layer: layer, Parent: parent, Op: t.op})
	t.open = append(t.open, id)
	t.spans[id].StartNS = int64(time.Since(t.t0))
	fn()
	t.spans[id].EndNS = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// durations returns the durations, in nanoseconds, of every span with the
// given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS))
		}
	}
	return out
}

// selfTimes returns, per layer, the summed self time in nanoseconds: each
// span's duration minus the part its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.EndNS - s.StartNS
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNS - s.StartNS
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		out[s.Layer] += float64(self[i])
	}
	return out
}

// traceFile is what -trace-out receives.
type traceFile struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	SelfTimeNS map[string]float64 `json:"layer_self_time_ns"`
	Spans      []span             `json:"spans"`
}

func (t *tracer) write(path, workload string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(traceFile{Workload: workload, Seed: seed, SelfTimeNS: t.selfTimes(), Spans: t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// percentile returns the nearest-rank pth quantile of vs (0 when empty).
// It sorts a copy.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(p * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(vs []float64) float64 { return percentile(vs, 0.5) }
