package syncanal

import (
	"testing"

	"repro/internal/delay"
)

// TestAnalyzeMidsizeMatchesReference crosses the large-input activation
// thresholds of the delay engine (dense-region dispatch at 256 region
// members, the word-parallel restricted search at 512 accesses) inside the
// full pipeline, and requires pair-identical results against the per-pair
// reference engine. The small-seed differential suite never reaches these
// sizes; the test refuses to run on a program that does not.
func TestAnalyzeMidsizeMatchesReference(t *testing.T) {
	fn := scalingProgram(t, 640)
	got := Analyze(fn, Options{})
	if n := len(fn.Accesses); n < 512 || got.LargestRegion < 256 {
		t.Fatalf("program below the gates it exists to cross: %d accesses (want >= 512), largest region %d (want >= 256)",
			n, got.LargestRegion)
	}
	want := Analyze(fn, Options{Reference: true})
	for _, s := range []struct {
		label     string
		got, want *delay.Set
	}{
		{"baseline", got.Baseline, want.Baseline},
		{"D1", got.D1, want.D1},
		{"D", got.D, want.D},
	} {
		identicalSets(t, s.label, s.got, s.want)
	}
	if got.R.Size() != want.R.Size() {
		t.Fatalf("|R| %d vs reference %d", got.R.Size(), want.R.Size())
	}
}

// TestScaleTierAnalysisPinned pins the full-pipeline result shape on the
// deterministic acc2048 tier: region decomposition and the sizes of the
// baseline, D1, R and the refined delay set must not drift. A changed size
// here means the engine produced different pairs at scale — precisely the
// regression the differential suites, whose oracle is affordable only to
// several hundred accesses, cannot see.
func TestScaleTierAnalysisPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second tier build in -short mode")
	}
	fn := tierProgram(t, "acc2048")
	res := Analyze(fn, Options{})
	if res.Regions != 3 || res.LargestRegion != 1700 {
		t.Fatalf("region decomposition drifted: %d regions, largest %d (want 3, 1700)",
			res.Regions, res.LargestRegion)
	}
	if n := res.Baseline.Size(); n != 2019476 {
		t.Fatalf("|Baseline| = %d, pinned 2019476", n)
	}
	if n := res.D1.Size(); n != 1108695 {
		t.Fatalf("|D1| = %d, pinned 1108695", n)
	}
	if n := res.R.Size(); n != 1821813 {
		t.Fatalf("|R| = %d, pinned 1821813", n)
	}
	if n := res.D.Size(); n != 1195464 {
		t.Fatalf("|D| = %d, pinned 1195464", n)
	}
}
