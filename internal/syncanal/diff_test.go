package syncanal

import (
	"fmt"
	"testing"

	"repro/internal/delay"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/progen"
	"repro/internal/sem"
	"repro/internal/source"
)

// TestAnalyzeMatchesReferenceEngine runs the full pipeline on progen
// programs twice — batched bitset engine vs. the per-pair reference
// search — and requires pair-identical Baseline (plain Shasha–Snir), D1,
// and refined D delay sets on at least 50 buildable seeds.
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
		want := Analyze(fn, Options{reference: true})
		samePairs(fmt.Sprintf("seed %d baseline", seed), got.Baseline, want.Baseline)
		samePairs(fmt.Sprintf("seed %d D1", seed), got.D1, want.D1)
		samePairs(fmt.Sprintf("seed %d D", seed), got.D, want.D)
		if got.R.Size() != want.R.Size() {
			t.Fatalf("seed %d: |R| %d vs reference %d", seed, got.R.Size(), want.R.Size())
		}
		checked++
	}
	if checked < 50 {
		t.Fatalf("only %d buildable seeds, want >= 50", checked)
	}
}

// TestOracleHooksSelectOracles holds the two test-only options to what the
// differentials rely on, since a hook that selected nothing would have them
// compare the production path with itself. perAccessR must leave R on its
// per-access backing, with no class partition; reference must send the
// back-path query to the per-pair oracle, which calls ConflictDir on every
// conflict edge it considers, where delay.Compute reads DirRows alone.
func TestOracleHooksSelectOracles(t *testing.T) {
	fn := ir.MustBuild(progen.Generate(3, progen.Options{Procs: 4}), ir.BuildOptions{Procs: 4})
	if res := Analyze(fn, Options{perAccessR: true}); res.RClasses != 0 || res.R.cp != nil {
		t.Fatalf("perAccessR: %d R classes, class partition %v; want the per-access backing", res.RClasses, res.R.cp != nil)
	}
	if res := Analyze(fn, Options{}); res.RClasses == 0 || res.R.cp == nil {
		t.Fatal("default options did not build the class-condensed R")
	}
	res := Prepare(fn)
	if res.CS.Size() == 0 {
		t.Fatal("program has no conflicts; the reference hook is not exercised")
	}
	rows := graph.NewBitMatrix(len(fn.Accesses))
	for x := range fn.Accesses {
		for _, y := range res.CS.Partners(x) {
			rows.Set(x, y)
		}
	}
	calls := 0
	con := delay.Constraints{
		ConflictDir: func(x, y int) bool { calls++; return true },
		DirRows:     rows,
	}
	Options{}.computeDelays(res.AG, res.CS, con)
	if calls != 0 {
		t.Fatalf("delay.Compute called ConflictDir %d times; it should read DirRows", calls)
	}
	Options{reference: true}.computeDelays(res.AG, res.CS, con)
	if calls == 0 {
		t.Fatal("reference: ConflictDir never called; the per-pair oracle did not run")
	}
}
