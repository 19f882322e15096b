package delay

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/conflict"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/progen"
	"repro/internal/sem"
	"repro/internal/source"
)

// denseFn seed-scans for a progen program of 512 to 1,024 accesses, whose
// largest region holds a few hundred members: the size at which the class
// solver's shared searches and cell bracket carry most of the work. The
// small-seed differential suite stays far below it, so those paths would
// otherwise ship tested only by the 2k-access tier's pins — which is
// exactly how a seed-expansion bug once slipped through to that tier.
func denseFn(tb testing.TB) *ir.Fn {
	tb.Helper()
	opts := progen.Options{
		Procs: 4, MaxPhases: 16, MaxStmts: 64, MaxDepth: 2,
		Arrays: 4, Scalars: 4, Events: 3, Locks: 2,
	}
	for seed := int64(0); seed < 200; seed++ {
		prog, err := source.Parse(progen.Generate(seed, opts))
		if err != nil {
			continue
		}
		info, err := sem.Check(prog)
		if err != nil {
			continue
		}
		fn, err := ir.Build(info, ir.BuildOptions{Procs: 4})
		if err != nil {
			continue
		}
		if n := len(fn.Accesses); n >= 512 && n <= 1024 {
			return fn
		}
	}
	tb.Fatal("no progen seed lands in [512, 1024] accesses")
	return nil
}

// denseVariants are the directed constraint variants of the large-input
// differential, each without and with an access classing, and the classed
// removal one also with cover ids. The removal predicate is shaped like the
// production lock guards — rem(a,b,z) holds iff a, b, and z share a mask
// bit — and the cover is exactly the removed set.
func denseVariants(fn *ir.Fn, cs *conflict.Set) []variant {
	n := len(fn.Accesses)
	m := make([]uint64, n)
	for x := 0; x < n; x++ {
		m[x] = 1 << uint(x%5)
	}
	rem := func(a, b, z int) bool { return m[a]&m[b]&m[z] != 0 }
	cover := func(a, b int, scratch []uint64) ([]uint64, int) {
		for i := range scratch {
			scratch[i] = 0
		}
		ab := m[a] & m[b]
		for z := 0; z < n; z++ {
			if m[z]&ab != 0 {
				graph.BitSet(scratch, z)
			}
		}
		return scratch, -1
	}
	// The cover depends on the pair only through m[a] & m[b], which numbers
	// it for the variant that shares searches between the cells of a cover.
	idCover := func(a, b int, scratch []uint64) ([]uint64, int) {
		row, _ := cover(a, b, scratch)
		return row, int(m[a] & m[b])
	}
	cdir := func(x, y int) bool { return (x+y)%3 != 0 || x <= y }
	dirRows := directedRows(cs, cdir)
	// The classed variants put the same removal behind an orientation that
	// depends on an access only through its conflict group, so whole groups
	// share their directed rows and columns, and hand the engine the
	// partition that interning (directed row, directed column, conflict
	// row, removal mask) yields — valid as Constraints.AccessClass by
	// construction.
	gdir := func(x, y int) bool {
		gx, gy := cs.GroupOf(x), cs.GroupOf(y)
		return (gx+gy)%3 != 0 || gx <= gy
	}
	gRows := directedRows(cs, gdir)
	gCols := gRows.Transpose()
	classOf := make([]int32, n)
	var classes graph.RowInterner
	var key []uint64
	for x := 0; x < n; x++ {
		key = append(key[:0], gRows.Row(x)...)
		key = append(key, gCols.Row(x)...)
		key = append(key, cs.Row(x)...)
		key = append(key, m[x])
		classOf[x], _ = classes.Intern(key)
	}
	return []variant{
		{"dirrows", Constraints{DirRows: dirRows}},
		{"dirrows+removed+cover", Constraints{
			DirRows: dirRows, Removed: rem, RemovedCover: cover}},
		{"classed", Constraints{DirRows: gRows, AccessClass: classOf}},
		{"classed+removed+cover", Constraints{
			DirRows: gRows, AccessClass: classOf, Removed: rem, RemovedCover: cover}},
		{"classed+removed+cover+ids", Constraints{
			DirRows: gRows, AccessClass: classOf, Removed: rem, RemovedCover: idCover}},
	}
}

// sharesCovers reports whether the variant numbers its covers: it asks the
// question of the variant listed before it, since the oracle reads neither
// the cover nor its ids.
func (v variant) sharesCovers() bool { return strings.HasSuffix(v.name, "+ids") }

// denseOracle holds what the large-input differentials share: denseFn's
// graphs, the dense variants, and the reference engine's set for each and
// for the plain baseline — a few seconds of per-pair searching apiece,
// computed once per test binary and side by side (the reference engine only
// reads the graphs).
var denseOracle struct {
	once     sync.Once
	ag       *ir.AccessGraph
	cs       *conflict.Set
	variants []variant
	want     []*Set // per variant
	baseline *Set
}

func denseReference(t *testing.T) {
	t.Helper()
	o := &denseOracle
	o.once.Do(func() {
		fn := denseFn(t)
		o.ag = ir.BuildAccessGraph(fn)
		o.cs = conflict.Compute(fn)
		o.variants = denseVariants(fn, o.cs)
		o.want = make([]*Set, len(o.variants))
		var wg sync.WaitGroup
		for i, v := range o.variants {
			if v.sharesCovers() {
				continue // shares the set of the variant before it, below
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				o.want[i] = ComputeReference(o.ag, o.cs, v.con)
			}()
		}
		o.baseline = ComputeReference(o.ag, o.cs, Constraints{})
		wg.Wait()
		for i, v := range o.variants {
			if v.sharesCovers() {
				o.want[i] = o.want[i-1]
			}
		}
	})
	if o.baseline == nil {
		t.Fatal("dense reference sets unavailable (an earlier test failed building them)")
	}
}

// TestDenseRegionMatchesReference is the large-input differential: on a
// program of several hundred accesses the engine must stay pair-identical
// to the per-pair reference search — on the directed variants without an
// access classing (every access its own class), on their classed
// counterparts, each at one worker and fanned over three, and on the plain
// baseline the hub solver answers. Every directed variant must run through
// classSolve. Of the classed removal variants the one with cover ids
// decides its cells by the shared searches, the one without by the bracket
// alone.
func TestDenseRegionMatchesReference(t *testing.T) {
	saved := Workers
	defer func() { Workers = saved }()
	denseReference(t)
	o := &denseOracle
	n := len(o.ag.Fn.Accesses)
	for i, v := range o.variants {
		for _, nw := range []int{1, 3} {
			Workers = nw
			work := WatchClassWork(t)
			pairsEqual(t, fmt.Sprintf("dense %s (n=%d, workers=%d)", v.name, n, nw), Compute(o.ag, o.cs, v.con), o.want[i])
			if work.Pairs == 0 {
				t.Fatalf("dense %s: classSolve visited no pair; it answers every directed variant", v.name)
			}
		}
	}
	Workers = saved
	pairsEqual(t, fmt.Sprintf("dense baseline (n=%d)", n), Compute(o.ag, o.cs, Constraints{}), o.baseline)
}

// subsetOf fails the test unless every pair of got is in want.
func subsetOf(t *testing.T, label string, got, want *Set) {
	t.Helper()
	for _, p := range got.Pairs() {
		if !want.Has(p.A, p.B) {
			t.Fatalf("%s: pair [%d,%d] survives the removal but has no back-path without it", label, p.A, p.B)
		}
	}
}

// TestRemovedSetWithinPlainSet holds the engine to the containment every
// answer classSolve gives rests on: removal only takes nodes away from a
// search, so the set computed under a Removed predicate lies within the
// reference's set for the same query with Removed nil. classSolve never asks
// whether a pair has a plain back-path — a cell the bracket keeps is kept
// whole, and a pair of an open cell is answered by its restricted search
// alone — so this is the test that every pair it sets has one: on the dense
// variants, where the bracket must be seen to keep cells, and on the
// 150-seed grid's removal variants.
func TestRemovedSetWithinPlainSet(t *testing.T) {
	denseReference(t)
	o := &denseOracle
	plain := -1
	for i, v := range o.variants {
		if v.con.Removed == nil {
			plain = i // the removal variants that follow restrict this one
			continue
		}
		work := WatchClassWork(t)
		subsetOf(t, "dense "+v.name, Compute(o.ag, o.cs, v.con), o.want[plain])
		if work.BracketKeeps == 0 {
			t.Fatalf("dense %s: the bracket kept no cell (%+v); the containment was not exercised where it matters", v.name, *work)
		}
	}
	checked := 0
	for seed := int64(0); seed < 150; seed++ {
		fn := genFn(seed)
		if fn == nil || len(fn.Accesses) == 0 {
			continue
		}
		ag := ir.BuildAccessGraph(fn)
		cs := conflict.Compute(fn)
		for _, v := range diffVariants(fn, cs) {
			if v.con.Removed == nil {
				continue
			}
			ref := v.con
			ref.Removed, ref.RemovedCover = nil, nil
			subsetOf(t, fmt.Sprintf("seed %d %s", seed, v.name), Compute(ag, cs, v.con), ComputeReference(ag, cs, ref))
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d of 150 seeds built, want >= 100", checked)
	}
}
