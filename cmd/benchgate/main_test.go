package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `
goos: linux
goarch: amd64
pkg: repro/internal/interp
BenchmarkInterpEM3D-4     	       5	    260000 ns/op	   56000 B/op	     200 allocs/op
BenchmarkInterpOcean-4    	       5	   5108000 ns/op	   94072 B/op	     389 allocs/op
BenchmarkFigure12-4       	       3	  54000000 ns/op
BenchmarkInterpEM3D-4     	       5	    240000 ns/op	   56000 B/op	     200 allocs/op
BenchmarkEnumerateSC/dekker-4   	     100	     25000 ns/op	         6.000 states	   62418 B/op	     131 allocs/op
PASS
`

const sampleBaseline = `{
  "benchmarks": [
    {"name": "BenchmarkInterpEM3D",
     "after": {"ns_op": 256000, "allocs_op": 199}},
    {"name": "BenchmarkInterpOcean",
     "after": {"ns_op": 1108000, "allocs_op": 389}},
    {"name": "BenchmarkFigure12",
     "after": {"ns_op": 53800000}},
    {"name": "BenchmarkNotRun",
     "after": {"ns_op": 1}}
  ]
}`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	// Repeated runs keep the per-metric minimum (260000 vs 240000).
	em := got["BenchmarkInterpEM3D"]
	if em.NsOp == nil || *em.NsOp != 240000 {
		t.Errorf("EM3D ns/op = %v", em.NsOp)
	}
	if em.AllocsOp == nil || *em.AllocsOp != 200 {
		t.Errorf("EM3D allocs/op = %v", em.AllocsOp)
	}
	fig := got["BenchmarkFigure12"]
	if fig.NsOp == nil || fig.AllocsOp != nil {
		t.Errorf("Figure12 = %+v, want ns/op only", fig)
	}
	// Custom b.ReportMetric units between ns/op and B/op are skipped.
	enum := got["BenchmarkEnumerateSC/dekker"]
	if enum.NsOp == nil || *enum.NsOp != 25000 {
		t.Errorf("EnumerateSC/dekker ns/op = %v", enum.NsOp)
	}
	if enum.AllocsOp == nil || *enum.AllocsOp != 131 {
		t.Errorf("EnumerateSC/dekker allocs/op = %v", enum.AllocsOp)
	}
}

func TestRunGate(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	if err := os.WriteFile(base, []byte(sampleBaseline), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	failures, err := run(strings.NewReader(sampleBench), []string{base}, 25, &sb)
	if err != nil {
		t.Fatal(err)
	}
	// Ocean regressed ~4.6x in ns/op; everything else is within tolerance.
	if failures != 1 {
		t.Errorf("failures = %d, want 1\n%s", failures, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "FAIL BenchmarkInterpOcean") {
		t.Errorf("missing Ocean failure:\n%s", out)
	}
	if !strings.Contains(out, "skip BenchmarkNotRun") {
		t.Errorf("missing not-run skip:\n%s", out)
	}
	if !strings.Contains(out, "no baseline metric") {
		t.Errorf("missing metric skip for Figure12 allocs:\n%s", out)
	}
}

// TestRunGateWidthSkip: a parallel-pool baseline entry is skipped (not
// failed) when the run's GOMAXPROCS width differs from the width the
// baseline was measured at, and still compared when widths match.
func TestRunGateWidthSkip(t *testing.T) {
	const baselineJSON = `{
  "benchmarks": [
    {"name": "BenchmarkFigure12", "host_cpus": 16, "parallel_pool": true,
     "after": {"ns_op": 10000000}},
    {"name": "BenchmarkInterpEM3D", "host_cpus": 16,
     "after": {"ns_op": 256000}}
  ]
}`
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	if err := os.WriteFile(base, []byte(baselineJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	// Width 4 run: Figure12 is 5x slower than baseline (pool 4x narrower),
	// but must be skipped rather than failed. EM3D is width-insensitive
	// (no parallel_pool) and must still be compared — and pass.
	bench := `
BenchmarkFigure12-4     	       3	  50000000 ns/op
BenchmarkInterpEM3D-4   	       5	    250000 ns/op
PASS
`
	var sb strings.Builder
	failures, err := run(strings.NewReader(bench), []string{base}, 25, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if failures != 0 {
		t.Errorf("failures = %d, want 0\n%s", failures, out)
	}
	if !strings.Contains(out, "skip BenchmarkFigure12") || !strings.Contains(out, "parallel width 4, baseline measured at 16") {
		t.Errorf("missing width-mismatch skip:\n%s", out)
	}
	if !strings.Contains(out, "ok   BenchmarkInterpEM3D") {
		t.Errorf("EM3D should still be compared:\n%s", out)
	}

	// Width 16 run: widths match, Figure12 is compared and its 5x
	// regression now fails the gate.
	bench16 := `
BenchmarkFigure12-16     	       3	  50000000 ns/op
PASS
`
	sb.Reset()
	failures, err = run(strings.NewReader(bench16), []string{base}, 25, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 1 || !strings.Contains(sb.String(), "FAIL BenchmarkFigure12") {
		t.Errorf("width-matched regression not caught (failures=%d):\n%s", failures, sb.String())
	}
}

// TestRunGateStaleAllocs: an allocs/op count better than its base by more
// than the tolerance fails and asks for a re-recording; within the
// tolerance it passes, and a wall time however much faster never fails.
func TestRunGateStaleAllocs(t *testing.T) {
	const baselineJSON = `{
  "benchmarks": [
    {"name": "BenchmarkInterpEM3D", "after": {"ns_op": 900000, "allocs_op": 400}},
    {"name": "BenchmarkInterpOcean", "after": {"ns_op": 9000000, "allocs_op": 400}}
  ]
}`
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	if err := os.WriteFile(base, []byte(baselineJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	// EM3D allocates 200 against 400 (-50 %), Ocean 389 (-2.75 %); both
	// run several times faster than recorded.
	var sb strings.Builder
	failures, err := run(strings.NewReader(sampleBench), []string{base}, 25, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if failures != 1 {
		t.Errorf("failures = %d, want 1 (EM3D's stale allocs/op)\n%s", failures, out)
	}
	for _, want := range []string{
		"FAIL BenchmarkInterpEM3D",
		"re-record the entry with benchgate -update",
		"ok   BenchmarkInterpOcean",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "ns/op") && strings.HasPrefix(line, "FAIL") {
			t.Errorf("a faster wall time failed: %s", line)
		}
	}
}

func TestRunGateNoMatches(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	if err := os.WriteFile(base, []byte(`{"benchmarks":[{"name":"X","after":{"ns_op":1}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := run(strings.NewReader("PASS\n"), []string{base}, 25, &sb); err == nil {
		t.Error("expected error when nothing matches the baseline")
	}
}

// TestUpdate: -update writes the run's per-metric minimums into the after
// blocks of the entries it measured, recomputes what is derived from them,
// and leaves every other byte of the file alone — whatever the layout.
func TestUpdate(t *testing.T) {
	const fixture = `{
  "description": "kept: {\"after\": 1} inside a string is not an after block",
  "benchmarks": [
    {
      "name": "BenchmarkInterpEM3D",
      "unit_procs": 8,
      "host_cpus": 1,
      "before": {"ns_op": 480000, "bytes_op": 57032, "allocs_op": 400},
      "after": {"ns_op": 256000, "bytes_op": 37786, "allocs_op": 199},
      "allocs_reduction_pct": 50.2,
      "time_reduction_pct": 46.7,
      "note": "a note, kept"
    },
    {
      "name": "BenchmarkInterpOcean",
      "before": {
        "ns_op": 10216000
      },
      "after": {
        "ns_op": 1108000,
        "allocs_op": 400
      },
      "speedup_x": 9.2
    },
    {"name": "BenchmarkFigure12", "host_cpus": 1, "parallel_pool": true,
     "after": {"ns_op": 53800000}},
    {"name": "BenchmarkNotRun",
     "after": {"ns_op": 1}},
    {"name": "BenchmarkNoAfter", "before": {"ns_op": 7}}
  ]
}
`
	const want = `{
  "description": "kept: {\"after\": 1} inside a string is not an after block",
  "benchmarks": [
    {
      "name": "BenchmarkInterpEM3D",
      "unit_procs": 8,
      "host_cpus": 4,
      "before": {"ns_op": 480000, "bytes_op": 57032, "allocs_op": 400},
      "after": {"ns_op": 240000, "bytes_op": 56000, "allocs_op": 200},
      "allocs_reduction_pct": 50.0,
      "time_reduction_pct": 50.0,
      "note": "a note, kept"
    },
    {
      "name": "BenchmarkInterpOcean",
      "before": {
        "ns_op": 10216000
      },
      "after": {
        "ns_op": 5108000,
        "allocs_op": 389
      },
      "speedup_x": 2.0
    },
    {"name": "BenchmarkFigure12", "host_cpus": 4, "parallel_pool": true,
     "after": {"ns_op": 54000000}},
    {"name": "BenchmarkNotRun",
     "after": {"ns_op": 1}},
    {"name": "BenchmarkNoAfter", "before": {"ns_op": 7}}
  ]
}
`
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	if err := os.WriteFile(base, []byte(fixture), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := update(strings.NewReader(sampleBench), nil, []string{base}, &sb); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("updated file:\n%s\nwant:\n%s", got, want)
	}
	if out := sb.String(); !strings.Contains(out, "3 entries updated") || !strings.Contains(out, "BenchmarkNotRun") {
		t.Errorf("report:\n%s", out)
	}
	// The file -update wrote gates the run it was written from.
	sb.Reset()
	if failures, err := run(strings.NewReader(sampleBench), []string{base}, 0, &sb); err != nil || failures != 0 {
		t.Errorf("gating the updated file against its own run: %d failures, err %v\n%s", failures, err, sb.String())
	}

	// An after block that records allocations cannot be written from a run
	// without -benchmem columns, and nothing may be half-written.
	if err := update(strings.NewReader("BenchmarkInterpEM3D-4 5 1 ns/op\n"), nil, []string{base}, &sb); err == nil {
		t.Error("expected an error: bytes_op/allocs_op recorded, none measured")
	}
	if again, _ := os.ReadFile(base); string(again) != want {
		t.Error("a failed update modified the file")
	}
	if err := update(strings.NewReader("PASS\n"), nil, []string{base}, &sb); err == nil {
		t.Error("expected an error when the run matches no entry")
	}
}

// TestUpdateBefore: with the parent commit's output as -before, the before
// blocks of the entries both runs measured are rewritten from it — the same
// per-metric minimums, only the fields the block already records — and the
// derived fields follow both sides; an entry the parent run did not measure
// keeps its before block byte for byte.
func TestUpdateBefore(t *testing.T) {
	const fixture = `{"benchmarks": [
  {"name": "BenchmarkInterpEM3D", "host_cpus": 1,
   "before": {"ns_op": 1, "allocs_op": 1},
   "after": {"ns_op": 1, "bytes_op": 1, "allocs_op": 1},
   "time_reduction_pct": 0.0, "allocs_reduction_pct": 0.0, "speedup_x": 1.0},
  {"name": "BenchmarkInterpOcean",
   "before": {"ns_op": 10216000},
   "after": {"ns_op": 1},
   "speedup_x": 1.0}
]}
`
	const parent = `
BenchmarkInterpEM3D-4     	       5	    500000 ns/op	   99000 B/op	     450 allocs/op
BenchmarkInterpEM3D-4     	       5	    480000 ns/op	   99000 B/op	     400 allocs/op
`
	const want = `{"benchmarks": [
  {"name": "BenchmarkInterpEM3D", "host_cpus": 4,
   "before": {"ns_op": 480000, "allocs_op": 400},
   "after": {"ns_op": 240000, "bytes_op": 56000, "allocs_op": 200},
   "time_reduction_pct": 50.0, "allocs_reduction_pct": 50.0, "speedup_x": 2.0},
  {"name": "BenchmarkInterpOcean",
   "before": {"ns_op": 10216000},
   "after": {"ns_op": 5108000},
   "speedup_x": 2.0}
]}
`
	base := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(base, []byte(fixture), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := update(strings.NewReader(sampleBench), strings.NewReader(parent), []string{base}, &sb); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(base); string(got) != want {
		t.Errorf("updated file:\n%s\nwant:\n%s", got, want)
	}
	if out := sb.String(); !strings.Contains(out, "before BenchmarkInterpEM3D") || strings.Contains(out, "before BenchmarkInterpOcean") {
		t.Errorf("report:\n%s", out)
	}
}
