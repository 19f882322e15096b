package syncanal

import (
	"math/bits"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/ir"
)

// Tests of step 4 as a product (precedence.go): the filter matrices against
// their per-pair definition, the rectangle insertion that leaves contained
// rectangles alone, and the state the fixpoint ends in. The product itself
// is held to the per-access oracle by TestClassCondensedMatchesPerAccessGrid
// and TestScaleTierClassCondensedMatchesPerAccess.

// TestDominatorFiltersMatchPerPairDefinition rebuilds PS and CS pair by pair
// from the statement-level domination predicates on 60 programs of the grid.
// The production path and the per-access oracle both consume
// dominatorFilters' output, so without this their agreement would say
// nothing about the filters; this definition shares no code with them
// beyond D1 and the dominator trees.
func TestDominatorFiltersMatchPerPairDefinition(t *testing.T) {
	checked, domPairs, pdomOnly := 0, 0, 0
	for seed := int64(0); seed < 120 && checked < 60; seed++ {
		fn, ok := gridProgram(seed)
		if !ok {
			continue
		}
		res := Analyze(fn, Options{})
		ps, cs := res.dominatorFilters(res.D1.SourceMatrix())
		acc := fn.Accesses
		for a := range acc {
			for b := range acc {
				inD1 := res.D1.Has(a, b)
				dom := res.Dom.StmtDominates(acc[a], acc[b])
				pdom := res.PDom.StmtPostDominates(acc[b], acc[a])
				if want := inD1 && (dom || pdom); ps.Has(b, a) != want {
					t.Fatalf("seed %d: PS.Row(%d) has %d = %v; [%d,%d] in D1 %v, dom %v, pdom %v",
						seed, b, a, !want, a, b, inD1, dom, pdom)
				}
				if want := inD1 && dom; cs.Has(a, b) != want {
					t.Fatalf("seed %d: CS.Row(%d) has %d = %v; [%d,%d] in D1 %v, dom %v",
						seed, a, b, !want, a, b, inD1, dom)
				}
				if inD1 && dom {
					domPairs++
				} else if inD1 && pdom {
					pdomOnly++
				}
			}
		}
		checked++
	}
	if checked < 60 || domPairs == 0 || pdomOnly == 0 {
		t.Fatalf("%d programs, %d dominating D1 pairs, %d postdominating only: the grid no longer exercises both arms",
			checked, domPairs, pdomOnly)
	}
}

// dominatorFiltersPerPair builds PS and CS the way the tree walks replaced:
// one block-level Dominates / PostDominates query per D1 pair.
func dominatorFiltersPerPair(res *Result) (ps, cs *graph.BitMatrix) {
	fn := res.Fn
	n := len(fn.Accesses)
	blk := make([]int, n)
	idx := make([]int, n)
	for i, a := range fn.Accesses {
		blk[i], idx[i] = a.Blk.ID, a.Idx
	}
	ps = graph.NewBitMatrix(n)
	cst := graph.NewBitMatrix(n)
	for b := 0; b < n; b++ {
		for wi, wd := range res.D1.TargetRow(b) {
			for m := wd; m != 0; m &= m - 1 {
				a := wi<<6 + bits.TrailingZeros64(m)
				switch {
				case blk[a] == blk[b]:
					if idx[a] < idx[b] {
						ps.Set(b, a)
						cst.Set(b, a)
					}
				case res.Dom.Dominates(blk[a], blk[b]):
					ps.Set(b, a)
					cst.Set(b, a)
				case res.PDom.PostDominates(blk[b], blk[a]):
					ps.Set(b, a)
				}
			}
		}
	}
	return ps, cst.Transpose()
}

// unreachableBlockSource has code after main's return: its accesses sit in
// a block the dominator tree does not reach, which still reaches the exit.
const unreachableBlockSource = `
shared int X;
shared int Y;
event E;
func main() {
    local int r = 0;
    if (MYPROC == 0) {
        X = 1;
        post(E);
    } else {
        wait(E);
        r = X;
    }
    Y = r;
    return;
    wait(E);
    Y = X;
    X = Y + 1;
    post(E);
}
`

// TestDominatorFilterWalksMatchPerPairLoop holds the two tree walks to the
// per-pair loop they replaced, matrix for matrix, on the differential
// programs (acc2048 among them outside -short) and on a program with an
// unreachable block.
func TestDominatorFilterWalksMatchPerPairLoop(t *testing.T) {
	progs := append(diffPrograms(t), diffProgram{"unreachable block",
		ir.MustBuild(unreachableBlockSource, ir.BuildOptions{Procs: 4})})
	for _, p := range progs {
		res := Analyze(p.fn, Options{})
		ps, cs := res.dominatorFilters(res.D1.SourceMatrix())
		wps, wcs := dominatorFiltersPerPair(res)
		if !slices.Equal(ps.Words(), wps.Words()) || !slices.Equal(cs.Words(), wcs.Words()) {
			t.Fatalf("%s: tree-walk filters differ from the per-pair loop", p.label)
		}
	}
	// The unreachable block must hold D1 pairs, or its case is untested.
	res := Analyze(progs[len(progs)-1].fn, Options{})
	dead := 0
	for _, a := range res.Fn.Accesses {
		if res.Dom.Idom(a.Blk.ID) < 0 && anyBit(res.D1.TargetRow(a.ID)) {
			dead++
		}
	}
	if dead == 0 {
		t.Fatal("no D1 pair targets an access of the unreachable block")
	}
}

// bitsOf returns the n-bit set holding ids.
func bitsOf(n int, ids ...int) []uint64 {
	row := make([]uint64, graph.WordsFor(n))
	for _, i := range ids {
		graph.BitSet(row, i)
	}
	return row
}

// TestContainedRectangleSplitsNothing pins what keeps the fixpoint state
// coalesced: a rectangle R already contains — even one that cuts across
// classes on both sides — changes neither the partition nor the relation,
// while a rectangle with one new pair splits what it has to.
func TestContainedRectangleSplitsNothing(t *testing.T) {
	const n = 12
	cp := newClassPrecedence(n)
	cp.addRect([]int32{0, 1, 2, 3}, []int32{6, 7, 8, 9})
	nc, splits, size := cp.nc, cp.splits, cp.Size()
	if size != 16 {
		t.Fatalf("seed rectangle holds %d pairs, want 16", size)
	}

	// {1,2} x {7,8} straddles both classes the seed made and adds nothing.
	if cp.addRectBits(bitsOf(n, 1, 2), bitsOf(n, 7, 8)) {
		t.Fatal("contained rectangle reported new pairs")
	}
	if cp.nc != nc || cp.splits != splits || cp.Size() != size {
		t.Fatalf("contained rectangle changed the partition: %d classes / %d splits / %d pairs, was %d / %d / %d",
			cp.nc, cp.splits, cp.Size(), nc, splits, size)
	}
	// addRect itself would have split both classes for the same no-op.
	probe := newClassPrecedence(n)
	probe.addRect([]int32{0, 1, 2, 3}, []int32{6, 7, 8, 9})
	if probe.addRect([]int32{1, 2}, []int32{7, 8}); probe.nc == nc {
		t.Fatal("addRect no longer splits on a contained rectangle; the containment test has lost its reason")
	}
	// Empty sides are contained by definition.
	if cp.addRectBits(bitsOf(n), bitsOf(n, 7)) || cp.addRectBits(bitsOf(n, 1), bitsOf(n)) {
		t.Fatal("rectangle with an empty side reported new pairs")
	}

	// {1,2} x {7,10}: [1,10] and [2,10] are new, so 10 leaves the rest class,
	// {1,2} leaves {0,3}, and 7 leaves {6,8,9}.
	if !cp.addRectBits(bitsOf(n, 1, 2), bitsOf(n, 7, 10)) {
		t.Fatal("rectangle with new pairs reported none")
	}
	if cp.splits == splits || cp.nc == nc {
		t.Fatalf("rectangle with new pairs split nothing: %d classes, %d splits", cp.nc, cp.splits)
	}
	if got := cp.Size(); got != size+2 {
		t.Fatalf("|R| = %d after adding [1,10] and [2,10], want %d", got, size+2)
	}
	if !cp.has(1, 10) || !cp.has(2, 10) || cp.has(0, 10) || cp.has(3, 10) || !cp.has(0, 7) {
		t.Fatal("relation wrong after the split")
	}

	// One single new pair.
	before := cp.Size()
	if !cp.addRectBits(bitsOf(n, 0), bitsOf(n, 11)) || cp.Size() != before+1 {
		t.Fatalf("single-pair rectangle: |R| %d, want %d", cp.Size(), before+1)
	}
}

// TestRefinedPartitionIsCoalescedAndClosed checks the state Precedence.refine stops
// in, on the 150-seed grid, the five kernels and (outside -short) acc2048:
// one more coalesce merges nothing and one more closure adds nothing. The
// class count of a coalesced partition is the number of distinct R rows and
// columns — a property of the relation, not of the order rectangles arrived
// in — which is what lets RClasses be pinned at all.
func TestRefinedPartitionIsCoalescedAndClosed(t *testing.T) {
	for _, p := range diffPrograms(t) {
		res := Analyze(p.fn, Options{})
		cp := res.R
		nc, size := cp.nc, cp.Size()
		if cp.transClose() {
			t.Fatalf("%s: refined R was not transitively closed", p.label)
		}
		cp.coalesce()
		if cp.nc != nc || cp.Size() != size {
			t.Fatalf("%s: one more coalesce took %d classes to %d (|R| %d to %d)",
				p.label, nc, cp.nc, size, cp.Size())
		}
		if res.RClasses != nc {
			t.Fatalf("%s: RClasses %d, partition has %d", p.label, res.RClasses, nc)
		}
	}
}

// TestFixpointCoalescesWhatTheLastClosureMerged builds the one case the grid
// never produces: the closure of the final round — the one whose scan adds
// nothing — makes classes indistinguishable. 0→2, 1→3 and the cycle 2⇄3
// close to rows {2,3} for all four, so {0,1} and {2,3} must end up one class
// each beside the untouched rest: three classes, not five.
func TestFixpointCoalescesWhatTheLastClosureMerged(t *testing.T) {
	const n = 6
	res := &Result{R: newClassPrecedence(n)}
	for _, e := range [][]int32{{0, 2}, {1, 3}, {2, 3}, {3, 2}} {
		res.R.addRect(e[:1], e[1:])
	}
	none := graph.NewBitMatrix(n)
	res.R.refine(none, none)
	if !res.R.has(0, 3) || !res.R.has(1, 2) || !res.R.has(2, 2) || res.R.has(2, 0) || res.R.Size() != 8 {
		t.Fatalf("closure wrong: |R| = %d", res.R.Size())
	}
	if got := res.R.nc; got != 3 {
		t.Fatalf("%d classes after refinement, want 3 ({0,1}, {2,3}, {4,5})", got)
	}
}
