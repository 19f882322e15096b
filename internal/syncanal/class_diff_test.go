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

// gridProgram builds the progen program for one seed of the differential
// grid, reporting ok=false for seeds that do not produce a usable Fn.
func gridProgram(seed int64) (*ir.Fn, bool) {
	opts := progen.Options{
		Procs: 4, MaxPhases: 3, MaxStmts: 6, MaxDepth: 2,
		Arrays: 3, Scalars: 3, Events: 2, Locks: 2,
	}
	prog, err := source.Parse(progen.Generate(seed, opts))
	if err != nil {
		return nil, false
	}
	info, err := sem.Check(prog)
	if err != nil {
		return nil, false
	}
	fn, err := ir.Build(info, ir.BuildOptions{Procs: 4})
	if err != nil || len(fn.Accesses) == 0 {
		return nil, false
	}
	return fn, true
}

// sameRelation requires the class-condensed relation to agree with the
// per-access oracle's on every access-level row.
func sameRelation(t *testing.T, label string, got *Precedence, want *graph.BitMatrix) {
	t.Helper()
	if got.Size() != want.Count() {
		t.Fatalf("%s: |R| %d vs per-access %d", label, got.Size(), want.Count())
	}
	for a := 0; a < want.N; a++ {
		gr, wr := got.rowOf(a), want.Row(a)
		for i := range wr {
			if gr[i] != wr[i] {
				t.Fatalf("%s: R row %d differs at word %d", label, a, i)
			}
		}
	}
}

// TestClassCondensedMatchesPerAccessGrid runs the full pipeline on every
// buildable seed of a 150-program progen grid and the per-access oracle
// beside it (analyzeOracle on delay.Compute) and requires the precedence
// relation and the refined delay set to be pair-identical. The class representation is an
// exact condensation, not an approximation, so any divergence is a bug.
func TestClassCondensedMatchesPerAccessGrid(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 250 && checked < 150; seed++ {
		fn, ok := gridProgram(seed)
		if !ok {
			continue
		}
		got := Analyze(fn, Options{})
		want := analyzeOracle(fn, Options{}, delay.Compute)
		label := fmt.Sprintf("seed %d", seed)
		sameRelation(t, label, got.R, want.R)
		if got.D.Size() != want.D.Size() {
			t.Fatalf("%s: |D| %d vs per-access %d", label, got.D.Size(), want.D.Size())
		}
		for _, p := range want.D.Pairs() {
			if !got.D.Has(p.A, p.B) {
				t.Fatalf("%s: per-access delay [%d,%d] missing", label, p.A, p.B)
			}
		}
		if got.RClasses < 1 || got.RClasses > len(fn.Accesses) {
			t.Fatalf("%s: implausible class count %d for %d accesses",
				label, got.RClasses, len(fn.Accesses))
		}
		checked++
	}
	if checked < 150 {
		t.Fatalf("only %d buildable seeds, want >= 150", checked)
	}
}

// TestClassPartitionCongruence checks the structural invariant the
// class-condensed representation rests on: the partition is a congruence
// of R. Every member of one class must have an identical access-level row
// AND column — otherwise expanding one bitset row per class could not
// reproduce the per-access relation exactly.
func TestClassPartitionCongruence(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 80 && checked < 40; seed++ {
		fn, ok := gridProgram(seed)
		if !ok {
			continue
		}
		res := Analyze(fn, Options{})
		n := len(fn.Accesses)
		rep := make(map[int32]int) // class -> first member seen
		distinct := 0
		for a := 0; a < n; a++ {
			c := res.R.classOf[a]
			r, seen := rep[c]
			if !seen {
				rep[c] = a
				distinct++
				continue
			}
			ar, rr := res.R.rowOf(a), res.R.rowOf(r)
			for i := range rr {
				if ar[i] != rr[i] {
					t.Fatalf("seed %d: accesses %d and %d share class %d but differ in row word %d",
						seed, a, r, c, i)
				}
			}
			ac, rc := res.R.colOf(a), res.R.colOf(r)
			for i := range rc {
				if ac[i] != rc[i] {
					t.Fatalf("seed %d: accesses %d and %d share class %d but differ in column word %d",
						seed, a, r, c, i)
				}
			}
		}
		if res.RClasses != distinct {
			t.Fatalf("seed %d: RClasses = %d but %d distinct classes observed",
				seed, res.RClasses, distinct)
		}
		checked++
	}
	if checked < 40 {
		t.Fatalf("only %d buildable seeds, want >= 40", checked)
	}
}

// TestScaleTierClassCondensedMatchesPerAccess is the at-scale differential:
// the deterministic acc2048 tier analyzed with the class-condensed default
// must match the per-access oracle pair for pair. The small-seed grid
// cannot reach the split/coalesce churn this input produces (1346 splits
// condensing back to 35 classes).
func TestScaleTierClassCondensedMatchesPerAccess(t *testing.T) {
	if testing.Short() {
		t.Skip("two multi-second tier analyses in -short mode")
	}
	fn := tierProgram(t, "acc2048")
	got := Analyze(fn, Options{})
	want := analyzeOracle(fn, Options{}, delay.Compute)
	sameRelation(t, "acc2048", got.R, want.R)
	if got.D.Size() != want.D.Size() {
		t.Fatalf("acc2048: |D| %d vs per-access %d", got.D.Size(), want.D.Size())
	}
}
