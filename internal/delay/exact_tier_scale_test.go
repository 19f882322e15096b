package delay_test

import (
	"math/bits"
	"testing"

	"repro/internal/delay"
	"repro/internal/graph"
	"repro/internal/syncanal"
)

// plainOriented rebuilds, from an analysis' exported results, the oriented
// data-data query of §5.1 step 6 WITHOUT its removal: the phased conflict
// rows (C minus the directions R forbids, data rows masked co-phase), the
// condensation of the orient graph syncanal solves on, the synchronization
// accesses skipped, and an access classing interned from what the contract
// of Constraints.AccessClass names once Removed is nil — directed row,
// directed column, conflict row.
func plainOriented(res *syncanal.Result) delay.Constraints {
	fn := res.Fn
	n := len(fn.Accesses)
	w := graph.WordsFor(n)
	dataMask := make([]uint64, w)
	var syncIDs []int
	for _, a := range fn.Accesses {
		if a.Kind.IsData() {
			graph.BitSet(dataMask, a.ID)
		}
		if a.Kind.IsSync() {
			syncIDs = append(syncIDs, a.ID)
		}
	}
	orient, phased := graph.NewBitMatrix(n), graph.NewBitMatrix(n)
	for x := 0; x < n; x++ {
		cx, rx := res.CS.Row(x), res.R.ColRow(x)
		ox, px := orient.Row(x), phased.Row(x)
		for i := range ox {
			ox[i] = cx[i] &^ rx[i]
		}
		copy(px, ox)
		if fn.Accesses[x].Kind.IsData() {
			cr := res.CoPhase.Row(x)
			for i := range px {
				px[i] &= ^dataMask[i] | cr[i]
			}
		}
	}
	comp := graph.Condense(n, func(u int, visit func(v int32)) {
		for _, v := range res.AG.G.Adj[u] {
			visit(int32(v))
		}
		for wi, wd := range orient.Row(u) {
			for ; wd != 0; wd &= wd - 1 {
				visit(int32(wi<<6 + bits.TrailingZeros64(wd)))
			}
		}
	})
	cols := phased.Transpose()
	classOf := make([]int32, n)
	var classes graph.RowInterner
	var key []uint64
	for x := 0; x < n; x++ {
		key = append(key[:0], phased.Row(x)...)
		key = append(key, cols.Row(x)...)
		key = append(key, res.CS.Row(x)...)
		classOf[x], _ = classes.Intern(key)
	}
	return delay.Constraints{SkipEndpoints: syncIDs, DirRows: phased, Comp: comp, AccessClass: classOf}
}

// TestExactTierMatchesAvoidReachAcc2048 is the differential on the one
// pinned input that reaches classSolve's exact tier: the 1,700-member region
// of acc2048. The production analysis no longer gets there — every pair the
// certificates cannot settle sits in a removal cell that drops or that the
// bracket keeps, and the cell is asked first — so the region is driven as
// the plain oriented query (plainOriented: same rows, same region, no
// removal), where the tiers are the whole answer and 1,639 pairs fall
// through to the confined search. Every verdict must be the exhaustive
// search's, and the test fails unless the tier was reached at least 1,000
// times with at least 100 of each verdict — it cannot pass by never reaching
// the code.
func TestExactTierMatchesAvoidReachAcc2048(t *testing.T) {
	if testing.Short() {
		t.Skip("tier analysis plus 1,639 exhaustive searches in -short mode")
	}
	res := syncanal.Analyze(delay.TierFn(t, "acc2048"), syncanal.Options{})
	if res.LargestRegion != 1700 {
		t.Fatalf("largest region %d, want 1700", res.LargestRegion)
	}
	tally := delay.WatchExactTier(t)
	delay.Compute(res.AG, res.CS, plainOriented(res))
	tally.Require(t, "acc2048 plain oriented", 1000, 100)
}

// TestClassSolveWorkAcc2048 pins the order of classSolve's two questions
// with counts, which repeat exactly on any host: per acc2048 analysis, how
// many pairs the per-pair loop visits, how many removal cells it decides
// (and how many of those the bracket keeps), how many cut trees it derives
// and how many confined exact searches it runs — identical at one worker and
// at three. Asked the other way round — back-path first, cell second — the
// same analysis derives 397 cut trees and runs 1,639 exact searches for
// pairs whose cell drops them or has already exhibited their path, while
// deciding 184,100 cells; asking the cell first may decide cells no
// back-path would have reached, and the test bounds that at 1 %.
func TestClassSolveWorkAcc2048(t *testing.T) {
	if testing.Short() {
		t.Skip("two tier analyses in -short mode")
	}
	saved := delay.Workers
	defer func() { delay.Workers = saved }()
	fn := delay.TierFn(t, "acc2048")
	want := delay.ClassWork{Pairs: 354762, Cells: 185039, BracketKeeps: 22514, CutTrees: 8, ExactSearches: 0}
	for _, nw := range []int{1, 3} {
		delay.Workers = nw
		got := delay.WatchClassWork(t)
		if res := syncanal.Analyze(fn, syncanal.Options{}); res.LargestRegion != 1700 {
			t.Fatalf("largest region %d, want 1700", res.LargestRegion)
		}
		if *got != want {
			t.Fatalf("workers=%d: classSolve work %+v, want %+v", nw, *got, want)
		}
	}
	if limit := 184100 * 101 / 100; want.Cells > limit {
		t.Fatalf("%d removal cells decided, want <= %d (1.01 x the 184,100 of the back-path-first order)", want.Cells, limit)
	}
}
