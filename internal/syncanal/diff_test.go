package syncanal

import (
	"fmt"
	"testing"

	"repro/internal/delay"
	"repro/internal/ir"
	"repro/internal/progen"
	"repro/internal/sem"
	"repro/internal/source"
)

// TestAnalyzeMatchesReferenceEngine runs the full pipeline on progen
// programs and the oracles beside it — per-access R, every back-path query
// on the per-pair reference search — and requires pair-identical Baseline
// (plain Shasha–Snir), D1, refined D and R on at least 50 buildable seeds.
func TestAnalyzeMatchesReferenceEngine(t *testing.T) {
	opts := progen.Options{
		Procs: 4, MaxPhases: 3, MaxStmts: 6, MaxDepth: 2,
		Arrays: 3, Scalars: 3, Events: 2, Locks: 2,
	}
	samePairs := func(label string, got, want *delay.Set) {
		t.Helper()
		if got.Size() != want.Size() {
			t.Fatalf("%s: %d pairs vs reference %d", label, got.Size(), want.Size())
		}
		for _, p := range want.Pairs() {
			if !got.Has(p.A, p.B) {
				t.Fatalf("%s: reference pair [%d,%d] missing", label, p.A, p.B)
			}
		}
	}
	checked := 0
	for seed := int64(0); seed < 80 && checked < 60; seed++ {
		prog, err := source.Parse(progen.Generate(seed, opts))
		if err != nil {
			continue
		}
		info, err := sem.Check(prog)
		if err != nil {
			continue
		}
		fn, err := ir.Build(info, ir.BuildOptions{Procs: 4})
		if err != nil || len(fn.Accesses) == 0 {
			continue
		}
		got := Analyze(fn, Options{})
		want := analyzeOracle(fn, Options{}, delay.ComputeReference)
		samePairs(fmt.Sprintf("seed %d baseline", seed), got.Baseline, want.Baseline)
		samePairs(fmt.Sprintf("seed %d D1", seed), got.D1, want.D1)
		samePairs(fmt.Sprintf("seed %d D", seed), got.D, want.D)
		sameRelation(t, fmt.Sprintf("seed %d", seed), got.R, want.R)
		checked++
	}
	if checked < 50 {
		t.Fatalf("only %d buildable seeds, want >= 50", checked)
	}
}

// TestOraclesRun holds analyzeOracle to what the differentials rely on,
// since an oracle that quietly ran the production path would have them
// compare it with itself. Its R must be its own per-access relation, equal
// to the class-condensed one but not of it; on the reference engine the
// oriented query must reach the per-pair search, which calls ConflictDir
// on every conflict edge it considers, while delay.Compute reads DirRows
// alone.
func TestOraclesRun(t *testing.T) {
	fn := ir.MustBuild(progen.Generate(3, progen.Options{Procs: 4}), ir.BuildOptions{Procs: 4})
	got := Analyze(fn, Options{})
	if got.CS.Size() == 0 || got.R.Size() == 0 {
		t.Fatalf("program has %d conflicts and |R| %d; the oracles are not exercised", got.CS.Size(), got.R.Size())
	}
	ref := analyzeOracle(fn, Options{}, delay.ComputeReference)
	sameRelation(t, "per-access R", got.R, ref.R)
	if ref.dirCalls.Load() == 0 {
		t.Fatal("reference: ConflictDir never called; the per-pair oracle did not run")
	}
	if calls := analyzeOracle(fn, Options{}, delay.Compute).dirCalls.Load(); calls != 0 {
		t.Fatalf("delay.Compute called ConflictDir %d times; it should read DirRows", calls)
	}
}
