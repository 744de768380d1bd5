package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"micgraph/internal/telemetry"
)

// span is one traced interval: a kernel call, a served job, or a phase
// inside one of them. Times are nanoseconds since the run started; Parent
// is 0 for a root span. Every span of one benchmark run shares Run.
type span struct {
	Run     string `json:"run"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Graph   string `json:"graph,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run; they are written out
// once, when the run ends, so file I/O never lands inside a timed call.
type tracer struct {
	mu    sync.Mutex
	run   string
	t0    time.Time
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// add records a span and returns its id.
func (t *tracer) add(parent int, name, graph string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Run: t.run, ID: id, Parent: parent, Name: name, Graph: graph,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reconcile checks that, for every span with children, the children's
// durations sum to no more than the parent's duration, and returns each
// root span's self time (duration minus the time its children cover) keyed
// by span id.
func (t *tracer) reconcile() (map[int]int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	childSum := map[int]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			childSum[s.Parent] += s.EndNS - s.StartNS
		}
	}
	self := map[int]int64{}
	for _, s := range t.spans {
		d := s.EndNS - s.StartNS
		if c := childSum[s.ID]; c > d {
			return nil, fmt.Errorf("trace: span %d (%s) children cover %dns of its %dns", s.ID, s.Name, c, d)
		}
		if s.Parent == 0 {
			self[s.ID] = d - childSum[s.ID]
		}
	}
	return self, nil
}

// stampRecorder is the traced run's kernel Recorder: a telemetry.MemRecorder
// plus the wall time each sample arrived. Kernels record a phase sample when
// the phase ends, so a sample's span is [arrival-Duration, arrival].
type stampRecorder struct {
	*telemetry.MemRecorder
	mu   sync.Mutex
	ends []time.Time
}

func newStampRecorder() *stampRecorder {
	return &stampRecorder{MemRecorder: telemetry.NewMemRecorder()}
}

func (r *stampRecorder) Record(s telemetry.PhaseSample) {
	end := time.Now()
	r.MemRecorder.Record(s)
	r.mu.Lock()
	r.ends = append(r.ends, end)
	r.mu.Unlock()
}

func (r *stampRecorder) reset() {
	r.MemRecorder.Reset()
	r.mu.Lock()
	r.ends = r.ends[:0]
	r.mu.Unlock()
}

// phases returns the recorded samples with their end times.
func (r *stampRecorder) phases() ([]telemetry.PhaseSample, []time.Time) {
	samples := r.MemRecorder.Samples()
	r.mu.Lock()
	defer r.mu.Unlock()
	return samples, append([]time.Time(nil), r.ends...)
}
