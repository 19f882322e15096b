package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// metric is one reported value. A results file is self-describing: every
// value carries its unit, its direction and — for an end-to-end timing —
// the bound -compare holds it to, so comparing two files needs no third.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Better is "lower" or "higher".
	Better string `json:"better,omitempty"`
	// Bound is the share of the base value by which the metric may worsen
	// before -compare calls it regressed; 0 on diagnostic metrics.
	Bound float64 `json:"bound,omitempty"`
	// Exact marks a count the program produces deterministically from the
	// seed: two runs of one commit must read the same, and -compare fails
	// on any difference.
	Exact bool `json:"exact,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Correct  bool   `json:"correct"`
	// Attempted and Failed count the ops of the timed phase.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Samples is the number of latencies behind op_p50_ms and op_tail_ms,
	// and TailPercentile the percentile op_tail_ms reports on this workload.
	Samples        int               `json:"samples"`
	TailPercentile float64           `json:"tail_percentile"`
	Metrics        map[string]metric `json:"metrics"`
}

func (r *result) set(name string, m metric) { r.Metrics[name] = m }

// setSpec records a metric BENCHMARK.json declares, taking unit, direction
// and bound from there. Counts and simulated cycles are exact: every one the
// benchmark reads is a deterministic function of the seed.
func (r *result) setSpec(sp *spec, name string, v float64) {
	m, ok := sp.find(name)
	if !ok {
		panic("benchmark: metric " + name + " is not declared in BENCHMARK.json")
	}
	r.set(name, metric{Value: v, Unit: m.Unit, Better: m.Better, Bound: m.Bound,
		Exact: m.Unit == "count" || m.Unit == "cycles"})
}

// exact records a declared metric that is deterministic although its unit
// is not a count, such as a ratio of two counts.
func (r *result) exact(sp *spec, name string, v float64) {
	r.setSpec(sp, name, v)
	m := r.Metrics[name]
	m.Exact = true
	r.Metrics[name] = m
}

// verdict closes the count of failed ops: the run is correct if none failed.
func (r *result) verdict(sp *spec) {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	r.exact(sp, "failed_share", float64(r.Failed)/float64(max(r.Attempted, 1)))
}

func (r *result) names() []string {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// print lists every metric by name with its unit and direction.
func (r *result) print(w io.Writer) {
	kind := "end-to-end, tracing off"
	if r.Traced {
		kind = "per-layer, traced"
	}
	fmt.Fprintf(w, "workload %s  seed %d  (%s)  correct=%v  attempted=%d  failed=%d  samples=%d  tail=p%g\n",
		r.Workload, r.Seed, kind, r.Correct, r.Attempted, r.Failed, r.Samples, r.TailPercentile)
	for _, name := range r.names() {
		m := r.Metrics[name]
		note := m.Better + " is better"
		if m.Bound > 0 {
			note += fmt.Sprintf(", bound %g%%", m.Bound*100)
		}
		if m.Exact {
			note += ", exact"
		}
		fmt.Fprintf(w, "  %-28s %16.6g %-6s (%s)\n", name, m.Value, m.Unit, note)
	}
}

// contractLine is the last line of standard output the driver reads: the
// metrics BENCHMARK.json lists for this kind of run and no others. A
// per-layer metric the workload does not exercise reads 0 there.
func (r *result) contractLine(sp *spec) string {
	list := sp.EndToEnd
	if r.Traced {
		list = sp.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, m := range list {
		out.Metrics[m.Name] = value{r.Metrics[m.Name].Value, m.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(data)
}

// resultSet is a results file: for each workload, its runs in seed order.
type resultSet struct {
	Seed      int64               `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Traced    bool                `json:"traced"`
	Workloads map[string][]result `json:"workloads"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
