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
// (plain Shasha–Snir), D1, refined D and R on at least 50 buildable seeds
// and on edgePrograms.
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
	var progs []queryProgram
	for seed := int64(0); seed < 80 && len(progs) < 60; seed++ {
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
		progs = append(progs, queryProgram{label: fmt.Sprintf("seed %d", seed), fn: fn})
	}
	if len(progs) < 50 {
		t.Fatalf("only %d buildable seeds, want >= 50", len(progs))
	}
	for _, p := range append(progs, edgePrograms()...) {
		got := Analyze(p.fn, p.opts)
		want := analyzeOracle(p.fn, p.opts, delay.ComputeReference)
		samePairs(p.label+" baseline", got.Baseline, want.Baseline)
		samePairs(p.label+" D1", got.D1, want.D1)
		samePairs(p.label+" D", got.D, want.D)
		sameRelation(t, p.label, got.R, want.R)
	}
}

// TestOraclesRun holds analyzeOracle to what the differentials rely on,
// since an oracle that quietly ran the production path would have them
// compare it with itself. Its R must be its own per-access relation, equal
// to the class-condensed one but not of it; on the reference engine the
// oriented query must reach the per-pair search, which asks Removed of
// every node it visits, while delay.Compute reads RemovedCover alone.
func TestOraclesRun(t *testing.T) {
	fn := ir.MustBuild(progen.Generate(3, progen.Options{Procs: 4}), ir.BuildOptions{Procs: 4})
	got := Analyze(fn, Options{})
	if got.CS.Size() == 0 || got.R.Size() == 0 {
		t.Fatalf("program has %d conflicts and |R| %d; the oracles are not exercised", got.CS.Size(), got.R.Size())
	}
	ref := analyzeOracle(fn, Options{}, delay.ComputeReference)
	sameRelation(t, "per-access R", got.R, ref.R)
	if ref.removedCalls.Load() == 0 {
		t.Fatal("reference: Removed never called; the per-pair oracle did not run")
	}
	if calls := analyzeOracle(fn, Options{}, delay.Compute).removedCalls.Load(); calls != 0 {
		t.Fatalf("delay.Compute called Removed %d times; it should read RemovedCover", calls)
	}
}
