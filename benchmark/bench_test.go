package main

import (
	"io"
	"regexp"
	"slices"
	"sync"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// tinyOps is the op count per client of a smoke run.
var tinyOps = map[string]int{"serve-mix": 60, "compile-2k": 1, "simulate-apps": 1, "verify-mix": 1}

func tiny(t *testing.T, sp *spec, workload string, seed int64, traced bool) *result {
	t.Helper()
	r, err := runWorkload(sp, runConfig{workload: workload, seed: seed, seconds: 1, traced: traced, setUps: 1, maxOps: tinyOps[workload]})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 {
		t.Fatalf("%s: %d of %d ops failed their checks", workload, r.Failed, r.Attempted)
	}
	return r
}

func exactCounts(r *result) map[string]float64 {
	out := map[string]float64{}
	for name, m := range r.Metrics {
		if m.Exact {
			out[name] = m.Value
		}
	}
	return out
}

// TestSmoke runs every workload at tiny counts, tracing off and then
// traced, both on one seed. It checks that no op fails; that every metric
// and workload BENCHMARK.json declares is reported under a well-formed name,
// the end-to-end ones by every workload and the per-layer ones by at least
// one; and that the exact counts the two runs share read the same.
//
// compile-2k's traced run is left to `go run ./benchmark -trace 1`: its
// three phases alone take five seconds, and every metric it reports the
// other workloads report too.
func TestSmoke(t *testing.T) {
	sp := testSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	var mu sync.Mutex
	reported := map[string]bool{}
	t.Run("workloads", func(t *testing.T) {
		for _, wl := range sp.Workloads {
			t.Run(wl.Name, func(t *testing.T) {
				t.Parallel()
				if !nameRE.MatchString(wl.Name) {
					t.Errorf("workload name %q is malformed", wl.Name)
				}
				plain := tiny(t, sp, wl.Name, 1, false)
				for _, m := range sp.EndToEnd {
					if plain.Metrics[m.Name].Value == 0 {
						t.Errorf("end-to-end metric %s missing or zero", m.Name)
					}
				}
				if fs, ok := plain.Metrics["failed_share"]; !ok || fs.Value != 0 {
					t.Errorf("failed_share = %v, want 0", fs.Value)
				}
				if wl.Name == "compile-2k" {
					return
				}
				traced := tiny(t, sp, wl.Name, 1, true)
				again := exactCounts(traced)
				for name, v := range exactCounts(plain) {
					if got, ok := again[name]; ok && got != v {
						t.Errorf("%s: %v tracing off, %v traced, with one seed", name, v, got)
					}
				}
				mu.Lock()
				defer mu.Unlock()
				for name := range traced.Metrics {
					reported[name] = true
				}
			})
		}
	})
	for _, m := range sp.EndToEnd {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is malformed", m.Name)
		}
	}
	for _, m := range sp.PerLayer {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q is malformed", m.Name)
		}
		if !reported[m.Name] {
			t.Errorf("per-layer metric %s is reported by no workload", m.Name)
		}
	}
}

// TestSeedDrivesInputs checks that a second seed gives serve-mix another
// request stream and verify-mix other racy programs.
func TestSeedDrivesInputs(t *testing.T) {
	stream := func(seed int64) []string {
		w := &serveMix{}
		if err := w.setUp(seed); err != nil {
			t.Fatal(err)
		}
		c, err := newStream(seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for i := 0; i < 40; i++ {
			q := w.next(c)
			out = append(out, q.class+q.src)
		}
		return out
	}
	a, b, c := stream(1), stream(1), stream(2)
	if !slices.Equal(a, b) {
		t.Error("serve-mix: one seed gave two request streams")
	}
	if slices.Equal(a, c) {
		t.Error("serve-mix: seeds 1 and 2 gave one request stream")
	}

	racy := func(seed int64) []string {
		w := &verifyMix{}
		if err := w.setUp(seed); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, c := range w.cases {
			if c.group == "racy" {
				out = append(out, c.src)
			}
		}
		return out
	}
	x, y := racy(1), racy(2)
	if len(x) != racyCount || len(y) != racyCount {
		t.Fatalf("verify-mix: %d and %d racy programs, want %d", len(x), len(y), racyCount)
	}
	if slices.Equal(x, y) {
		t.Error("verify-mix: seeds 1 and 2 gave the same racy programs")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// is [3.5, 13.5, 31.0].
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(ms, count float64) resultSet {
		return resultSet{Seed: 1, Workloads: map[string][]result{"w": {{Workload: "w", Metrics: map[string]metric{
			"op_p50_ms": {Value: ms, Unit: "ms", Better: "lower", Bound: 0.10},
			"events":    {Value: count, Unit: "count", Better: "lower", Exact: true},
		}}}}}
	}
	dir := t.TempDir()
	write := func(name string, set resultSet) string {
		path := dir + "/" + name
		if err := writeJSON(path, &set); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", mk(100, 5))
	for _, tc := range []struct {
		name      string
		ms, count float64
		fail      bool
	}{
		{"same", 100, 5, false},
		{"within", 109, 5, false},
		{"regressed", 111, 5, true},
		{"better", 50, 5, false},
		{"count-changed", 100, 6, true},
	} {
		err := compareFiles(io.Discard, base, write(tc.name+".json", mk(tc.ms, tc.count)))
		if (err != nil) != tc.fail {
			t.Errorf("%s: err = %v, want failure %v", tc.name, err, tc.fail)
		}
	}
}
