package syncanal

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/delay"
	"repro/internal/graph"
	"repro/internal/ir"
)

// Differentials for the three places the analysis does no whole-program
// work: D1 searched over the sync pairs alone with the baseline deferred,
// lock confinement asked per lock instead of closed over every access, and
// the dominant region's tree groups solved on every worker instead of one.

type diffProgram struct {
	label string
	fn    *ir.Fn
}

// diffPrograms returns the inputs every differential below runs on: 150
// buildable seeds of the progen grid (two locks, so guards occur), the five
// application kernels, the 70-lock-key program whose guard sets span two
// words, and — outside -short — the pinned acc2048 tier, the only one
// whose regions reach the dense class solver.
func diffPrograms(t *testing.T) []diffProgram {
	t.Helper()
	var out []diffProgram
	for seed := int64(0); seed < 250 && len(out) < 150; seed++ {
		if fn, ok := gridProgram(seed); ok {
			out = append(out, diffProgram{fmt.Sprintf("seed %d", seed), fn})
		}
	}
	if len(out) < 150 {
		t.Fatalf("only %d buildable seeds, want >= 150", len(out))
	}
	for _, k := range apps.All() {
		out = append(out, diffProgram{k.Name, ir.MustBuild(k.Source(8, 1), ir.BuildOptions{Procs: 8})})
	}
	out = append(out, manyLocksProgram())
	if !testing.Short() {
		out = append(out, diffProgram{"acc2048", tierProgram(t, "acc2048")})
	}
	return out
}

// identicalSets requires two delay sets to hold exactly the same pairs,
// compared row by row.
func identicalSets(t *testing.T, label string, got, want *delay.Set) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s: %d pairs, want %d", label, got.Size(), want.Size())
	}
	for b := range want.Fn.Accesses {
		if !reflect.DeepEqual(got.TargetRow(b), want.TargetRow(b)) {
			t.Fatalf("%s: target row %d differs", label, b)
		}
	}
}

// TestD1AndBaselineMatchReference holds the two sets step 2 builds to the
// per-pair reference search over the whole program: D1, the engine's query
// over the pairs with a synchronization endpoint, to the reference's pairs
// kept iff one endpoint is a synchronization access; and the deferred
// baseline, D1 plus the query over the other pairs, to the reference's set
// itself (on every program the reference engine can afford; acc2048's |D1|
// and |Baseline| are pinned in TestScaleTierAnalysisPinned). On every
// program it checks D ⊆ Baseline on the way — the refinement only ever
// removes Shasha–Snir delays.
func TestD1AndBaselineMatchReference(t *testing.T) {
	for _, p := range diffPrograms(t) {
		n := len(p.fn.Accesses)
		label := fmt.Sprintf("%s (n=%d)", p.label, n)
		res := Analyze(p.fn, Options{})
		if n <= 1024 {
			ref := delay.ComputeReference(res.AG, res.CS, delay.Constraints{})
			swept := delay.NewSet(p.fn)
			for _, d := range ref.Pairs() {
				if p.fn.Accesses[d.A].Kind.IsSync() || p.fn.Accesses[d.B].Kind.IsSync() {
					swept.Add(d.A, d.B)
				}
			}
			identicalSets(t, label+" D1", res.D1, swept)
			identicalSets(t, label+" Baseline", res.Baseline, ref)
		}
		for _, d := range res.D.Pairs() {
			if !res.Baseline.Has(d.A, d.B) {
				t.Fatalf("%s: refined delay [%d,%d] outside the baseline", label, d.A, d.B)
			}
		}
	}
}

// confinementReach is the oracle for the demand-driven confinement
// sweeps: the full reachability closure, over every access, of D1 edges
// plus direct def-use edges — what computeGuards used to build to answer
// two questions per guarded access.
func confinementReach(res *Result) *graph.ClassRows {
	fn := res.Fn
	n := len(fn.Accesses)
	users := make(map[ir.LocalID][]int)
	for _, c := range fn.Accesses {
		for _, l := range accessLocals(c, nil) {
			users[l] = append(users[l], c.ID)
		}
	}
	edges := graph.NewBitMatrix(n)
	for _, p := range res.D1.Pairs() {
		edges.Set(p.A, p.B)
	}
	for _, blk := range fn.Blocks {
		for _, s := range blk.Stmts {
			if ld, ok := s.(*ir.Load); ok {
				for _, c := range users[ld.Dst] {
					if c != ld.Acc.ID {
						edges.Set(ld.Acc.ID, c)
					}
				}
			}
		}
	}
	iter := func(u int, visit func(v int32)) {
		for v := 0; v < n; v++ {
			if edges.Has(u, v) {
				visit(int32(v))
			}
		}
	}
	return graph.Condense(n, iter).ReachRows(n, iter)
}

// guardsFromClosure is section 5.3's definition read straight off the
// closure, scanning every access for the dominating lock and the dominated
// unlock. Its held sets come from the map oracle, so it shares no dataflow
// with the production guards.
func guardsFromClosure(res *Result) map[int]map[string]bool {
	fn := res.Fn
	guards := make(map[int]map[string]bool)
	confined := confinementReach(res)
	held := mustHeldLocksMap(fn)
	for _, a := range fn.Accesses {
		for l := range held[a.ID] {
			ok1, ok2 := false, false
			for _, c := range fn.Accesses {
				switch {
				case c.Kind != ir.AccLock && c.Kind != ir.AccUnlock, accessKey(fn, c) != l:
				case c.Kind == ir.AccLock:
					ok1 = ok1 || res.Dom.StmtDominates(c, a) && graph.BitGet(confined.Row(c.ID), a.ID)
				default:
					ok2 = ok2 || res.Dom.StmtDominates(a, c) && graph.BitGet(confined.Row(a.ID), c.ID)
				}
			}
			if ok1 && ok2 {
				if guards[a.ID] == nil {
					guards[a.ID] = make(map[string]bool)
				}
				guards[a.ID][l] = true
			}
		}
	}
	return guards
}

func TestDemandGuardsMatchClosure(t *testing.T) {
	guarded := 0
	for _, p := range diffPrograms(t) {
		res := Analyze(p.fn, Options{})
		want := guardsFromClosure(res)
		if !reflect.DeepEqual(res.Guards, want) {
			t.Fatalf("%s: demand-driven guards %v, closure guards %v", p.label, res.Guards, want)
		}
		guarded += len(want)
	}
	if guarded < 100 {
		t.Fatalf("only %d guarded accesses over the whole suite; the comparison is near-vacuous", guarded)
	}
}

// TestAnalyzeDeterministicAcrossWorkers extends the delay package's
// worker-count determinism check to the oriented pass: the refined set D
// is bit-identical whether one worker solves the tree groups of a region
// in order or several claim them as they come. Run under -race in CI, it
// is also the check that the workers share nothing they write.
func TestAnalyzeDeterministicAcrossWorkers(t *testing.T) {
	defer func(w int) { delay.Workers = w }(delay.Workers)
	for _, p := range diffPrograms(t) {
		delay.Workers = 1
		want := Analyze(p.fn, Options{})
		for _, nw := range []int{2, 3, 8} {
			delay.Workers = nw
			got := Analyze(p.fn, Options{})
			label := fmt.Sprintf("%s workers=%d", p.label, nw)
			identicalSets(t, label+" D1", got.D1, want.D1)
			identicalSets(t, label+" D", got.D, want.D)
			if got.R.Size() != want.R.Size() {
				t.Fatalf("%s: |R| %d, want %d", label, got.R.Size(), want.R.Size())
			}
		}
	}
}
