package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans are recorded only here, in
// the benchmark's own files, around calls into the layers' public
// functions; the program under test carries no tracing.
type span struct {
	name       string
	parent     int // index of the enclosing span, -1 at the root
	op         int // spans of one op share its number
	tid        int // client goroutine
	start, end time.Duration
}

// tracer keeps spans in memory; writeChrome dumps them at exit.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, op, tid int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, op: op, tid: tid, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
	return now - t.spans[id].start
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microseconds), loadable in chrome://tracing and Perfetto.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		events = append(events, event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.tid,
			Args: map[string]int{"id": i, "parent": s.parent, "op": s.op},
		})
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerTrace is the traced run's state: the span recorder plus one value
// per op for every per-layer metric the op touched. A per-layer metric is
// the median of its per-op values.
type layerTrace struct {
	tr   *tracer
	mu   sync.Mutex
	vals map[string][]float64
	// failed names the checks the probe or an assertion over the layers
	// failed; each counts as a failed op.
	failed []string
}

func newLayerTrace() *layerTrace {
	return &layerTrace{tr: newTracer(), vals: map[string][]float64{}}
}

// add records one op's totals.
func (lt *layerTrace) add(op map[string]float64) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	for k, v := range op {
		lt.vals[k] = append(lt.vals[k], v)
	}
}

// fail records a failed layer check.
func (lt *layerTrace) fail(format string, args ...any) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	lt.failed = append(lt.failed, fmt.Sprintf(format, args...))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// allocBytes reads the process's cumulative heap allocation without
// stopping the world, so it can sit between sub-millisecond passes.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
