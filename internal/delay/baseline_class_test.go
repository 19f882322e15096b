package delay

import (
	"fmt"
	"testing"

	"repro/internal/conflict"
	"repro/internal/ir"
	"repro/internal/progen"
	"repro/internal/sem"
	"repro/internal/source"
)

// TestBaselineClassCondensedGrid is the wide differential for the
// class-condensed baseline: the hub solver answers the symmetric
// unconstrained (plain Shasha-Snir) computation through per-(target,
// source-group) cell verdicts — witness-extreme intervals on the shared
// base sweep — and must stay pair-identical to the per-pair reference
// search on every seed of a 150-seed grid. Seeds that fail to build are
// skipped; the grid must still yield a healthy number of programs. Past
// the reference's reach, the acc2048 and acc8192 baselines are pinned by
// size in the syncanal tier tests.
func TestBaselineClassCondensedGrid(t *testing.T) {
	for _, p := range gridPrograms(t) {
		ag, cs := ir.BuildAccessGraph(p.fn), conflict.Compute(p.fn)
		got := Compute(ag, cs, Constraints{})
		want := ComputeReference(ag, cs, Constraints{})
		pairsEqual(t, fmt.Sprintf("baseline %s (n=%d)", p.name, len(p.fn.Accesses)), got, want)
	}
}

// gridProgram is one buildable seed of the 150-seed grid.
type gridProgram struct {
	name string
	fn   *ir.Fn
}

// gridPrograms builds the 150-seed progen grid at 4 processors. Seeds
// that fail to build are skipped; the grid must still yield a healthy
// number of programs.
func gridPrograms(t *testing.T) []gridProgram {
	t.Helper()
	opts := progen.Options{
		Procs: 4, MaxPhases: 4, MaxStmts: 10, MaxDepth: 2,
		Arrays: 3, Scalars: 3, Events: 2, Locks: 2,
	}
	var progs []gridProgram
	for seed := int64(0); seed < 150; seed++ {
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
		progs = append(progs, gridProgram{fmt.Sprintf("seed %d", seed), fn})
	}
	if len(progs) < 100 {
		t.Fatalf("only %d of 150 seeds built, want >= 100", len(progs))
	}
	return progs
}
