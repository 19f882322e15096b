package delay

import (
	"fmt"
	"math/bits"
	"sync"
	"testing"

	"repro/internal/conflict"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/progen"
	"repro/internal/sem"
	"repro/internal/source"
)

// denseFn seed-scans for a progen program with at least 512 accesses: the
// size gate for the word-parallel restricted search (denseRestrict needs
// n >= 512) and comfortably past the dense-region dispatch (nl >= 256 with
// one word of edges per node). The small-seed differential suite never
// crosses these thresholds, so the dense code paths would otherwise ship
// untested — which is exactly how a seed-expansion bug once slipped
// through to the 2k-access tier.
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

// denseVariants are the directed-engine constraint variants whose code
// paths only activate on large inputs, each without and with an access
// classing, and the classed exact one also with cover ids. The removal
// predicate is shaped like the production lock guards — rem(a,b,z) holds
// iff a, b, and z share a mask bit — so the cover is exactly the removed
// set.
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
	dirRows := graph.NewBitMatrix(n)
	for x := 0; x < n; x++ {
		for _, y := range cs.Partners(x) {
			if cdir(x, y) {
				dirRows.Set(x, y)
			}
		}
	}
	// The classed variants put the same removal behind an orientation that
	// depends on an access only through its conflict group, so whole groups
	// share their directed rows and columns, and hand the engine the
	// partition that interning (directed row, directed column, conflict
	// row, removal mask) yields — valid as Constraints.AccessClass by
	// construction. They are the inputs classSolve accepts;
	// TestDenseRegionMatchesReference checks that it does.
	gdir := func(x, y int) bool {
		gx, gy := cs.GroupOf(x), cs.GroupOf(y)
		return (gx+gy)%3 != 0 || gx <= gy
	}
	gRows := graph.NewBitMatrix(n)
	for x := 0; x < n; x++ {
		for _, y := range cs.Partners(x) {
			if gdir(x, y) {
				gRows.Set(x, y)
			}
		}
	}
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
		{"dirrows+removed+exact", Constraints{
			DirRows: dirRows, Removed: rem, RemovedCover: cover, RemovedExact: true}},
		{"classed", Constraints{DirRows: gRows, AccessClass: classOf}},
		{"classed+removed+cover", Constraints{
			DirRows: gRows, AccessClass: classOf, Removed: rem, RemovedCover: cover}},
		{"classed+removed+exact", Constraints{
			DirRows: gRows, AccessClass: classOf, Removed: rem, RemovedCover: cover,
			RemovedExact: true}},
		{"classed+removed+exact+ids", Constraints{
			DirRows: gRows, AccessClass: classOf, Removed: rem, RemovedCover: idCover,
			RemovedExact: true}},
	}
}

// requireClassSolvePath fails the test unless the largest region of the
// mixed graph under con.DirRows meets the three conditions on which
// regionSolve hands a region to classSolve and classSolve keeps it: at
// least denseRegionMin members, at least one edge per node word, and no
// more distinct localized seed rows than a third of the members. Without
// this the classed variants could fall back to the CSR loop and still pass.
func requireClassSolvePath(t *testing.T, ag *ir.AccessGraph, con Constraints) {
	t.Helper()
	n := len(ag.Fn.Accesses)
	mixed := func(u int, visit func(v int32)) {
		for _, v := range ag.G.Adj[u] {
			visit(int32(v))
		}
		for wi, word := range con.DirRows.Row(u) {
			for ; word != 0; word &= word - 1 {
				visit(int32(wi<<6 + bits.TrailingZeros64(word)))
			}
		}
	}
	cd := graph.Condense(n, mixed)
	c := 0
	for i, mem := range cd.Members {
		if len(mem) > len(cd.Members[c]) {
			c = i
		}
	}
	members := cd.Members[c]
	nl := len(members)
	mask := make([]uint64, graph.WordsFor(n))
	for _, v := range members {
		graph.BitSet(mask, int(v))
	}
	eLocal := 0
	var seedRows graph.RowInterner
	distinct := 0
	row := make([]uint64, len(mask))
	for _, v := range members {
		for _, u := range ag.G.Adj[v] {
			if cd.Comp[u] == int32(c) {
				eLocal++
			}
		}
		for wi, word := range con.DirRows.Row(int(v)) {
			row[wi] = word & mask[wi]
			eLocal += bits.OnesCount64(row[wi])
		}
		if _, fresh := seedRows.Intern(row); fresh {
			distinct++
		}
	}
	if nl < denseRegionMin || eLocal < nl*nl/64 || distinct > nl/3 {
		t.Fatalf("largest region (%d members, %d local edges, %d distinct seed rows) would not be class-solved: need >= %d members, >= %d edges, <= %d seed rows",
			nl, eLocal, distinct, denseRegionMin, nl*nl/64, nl/3)
	}
}

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
			if v.con.RemovedExact {
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
		// An exact variant asks the question of the cover variant listed
		// before it: the oracle reads neither the cover, nor the claim that
		// it is exact, nor its ids.
		for i, v := range o.variants {
			if v.con.RemovedExact {
				o.want[i] = o.want[i-1]
			}
		}
	})
	if o.baseline == nil {
		t.Fatal("dense reference sets unavailable (an earlier test failed building them)")
	}
}

// TestDenseRegionMatchesReference is the large-input differential: past
// the activation thresholds (class-solver dispatch at denseRegionMin
// members, the word-parallel restricted search at n >= 512) the engine
// must stay pair-identical to the per-pair reference search — on the three
// directed variants without an access classing (one big region on the CSR
// loop), on their classed counterparts (the same region; the three with a
// removal on classSolve, one worker and fanned over three, the one without
// on the CSR loop, since classSolve takes only the oriented pass's shape),
// and on the plain baseline the hub solver answers. Of the classed exact
// variants the one with cover ids decides its cells by the shared
// searches, the one without by the bracket alone.
func TestDenseRegionMatchesReference(t *testing.T) {
	saved := Workers
	defer func() { Workers = saved }()
	denseReference(t)
	o := &denseOracle
	n := len(o.ag.Fn.Accesses)
	for i, v := range o.variants {
		classed := v.con.AccessClass != nil && v.con.Removed != nil
		workers := []int{saved}
		if classed {
			requireClassSolvePath(t, o.ag, v.con)
			workers = []int{1, 3}
		}
		for _, nw := range workers {
			Workers = nw
			work := WatchClassWork(t)
			pairsEqual(t, fmt.Sprintf("dense %s (n=%d, workers=%d)", v.name, n, nw), Compute(o.ag, o.cs, v.con), o.want[i])
			if classed != (work.Pairs != 0) {
				t.Fatalf("dense %s: classSolve visited %d pairs; it must answer the removal variants of a classing and nothing else", v.name, work.Pairs)
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
		if v.con.AccessClass != nil && v.con.RemovedExact && work.BracketKeeps == 0 {
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
