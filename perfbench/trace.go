package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// maxKeptSpans bounds the spans kept for the span file; durations of every
// span still feed the per-layer figures.
const maxKeptSpans = 200000

// span is one timed call at a layer boundary. Spans of one operation share
// op; parent is the index in the span file of the span that caused it, or
// -1 for a span of the operation itself.
type span struct {
	Name   string `json:"name"`
	Op     uint64 `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory while on, and writes them out at exit.
// A nil or disabled tracer records nothing and costs one branch per call.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu      sync.Mutex
	kept    []span
	dropped int
	durs    map[string][]float64 // span name -> durations in ns
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), durs: map[string][]float64{}}
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// now is the tracer clock: nanoseconds since the tracer was made (0 on a
// nil tracer).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// record stores a span while tracing is on.
func (t *tracer) record(name string, op uint64, start, end int64) {
	if !t.enabled() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.durs[name] = append(t.durs[name], float64(end-start))
	if len(t.kept) >= maxKeptSpans {
		t.dropped++
		return
	}
	t.kept = append(t.kept, span{Name: name, Op: op, Start: start, End: end})
}

// parents names, for each span caused by another, the spans that can
// cause it: the server side of a control operation runs inside the
// client's facade call. Data-path spans overlap without nesting (egress
// outlives the send call that starts it), so they have no parent and are
// tied together by their operation alone.
var parents = map[string][]string{
	"attest.enroll":    {"core.join"},
	"vpn.hello":        {"core.join"},
	"lifecycle.resume": {"core.resume"},
	"config.fetch":     {"core.rollout", "core.resume", "core.join"},
}

// link sets each kept span's parent: the shortest span of the same
// operation, of a kind that can cause it, whose interval contains it.
// Spans are recorded when they end, so a parent is known only once its
// children are.
func link(spans []span) {
	byOp := map[uint64][]int{}
	for i := range spans {
		byOp[spans[i].Op] = append(byOp[spans[i].Op], i)
	}
	for i := range spans {
		s := &spans[i]
		s.Parent = -1
		for _, j := range byOp[s.Op] {
			p := spans[j]
			if !slices.Contains(parents[s.Name], p.Name) || p.Start > s.Start || p.End < s.End {
				continue
			}
			if s.Parent < 0 || p.End-p.Start < spans[s.Parent].End-spans[s.Parent].Start {
				s.Parent = j
			}
		}
	}
}

// durations returns the recorded durations (ns) of spans named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.durs[name]...)
}

// count returns how many spans named name were recorded.
func (t *tracer) count(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.durs[name])
}

// write saves the kept spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	link(t.kept)
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.kept {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if t.dropped > 0 {
		if err := enc.Encode(map[string]int{"dropped_spans": t.dropped}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
