package delay

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/conflict"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/progen"
	"repro/internal/sem"
	"repro/internal/source"
)

// genFn builds the progen program for a seed, or nil when the seed does
// not produce a buildable program.
func genFn(seed int64) *ir.Fn {
	opts := progen.Options{
		Procs: 4, MaxPhases: 3, MaxStmts: 6, MaxDepth: 2,
		Arrays: 3, Scalars: 3, Events: 2, Locks: 2,
	}
	prog, err := source.Parse(progen.Generate(seed, opts))
	if err != nil {
		return nil
	}
	info, err := sem.Check(prog)
	if err != nil {
		return nil
	}
	fn, err := ir.Build(info, ir.BuildOptions{Procs: 4})
	if err != nil {
		return nil
	}
	return fn
}

// variant is one named constraint shape of a differential test.
type variant struct {
	name string
	con  Constraints
}

// pairDir is the test orientation that decides each conflict edge by its
// endpoints.
func pairDir(x, y int) bool { return (x+y)%3 != 0 || x <= y }

// groupDir is the test orientation that decides each conflict edge by its
// endpoints' conflict groups, so whole groups share their directed rows
// and columns.
func groupDir(cs *conflict.Set) func(x, y int) bool {
	return func(x, y int) bool {
		gx, gy := cs.GroupOf(x), cs.GroupOf(y)
		return (gx+gy)%3 != 0 || gx <= gy
	}
}

// directedQuery builds the oriented query over the conflict edges x -> y
// that dir allows, every access its own class: DirRows with its columns,
// Comp the condensation of the mixed graph they make, and rem (nil for
// none) as Removed beside its exact cover. The cover is built for each
// pair afresh, under id -1 or, when ids is non-nil, under ids(a, b), which
// must give one number only to pairs with one cover.
func directedQuery(ag *ir.AccessGraph, cs *conflict.Set, dir func(x, y int) bool,
	rem func(a, b, z int) bool, ids func(a, b int) int) Constraints {

	n, w := cs.N(), graph.WordsFor(cs.N())
	rows := &graph.ClassRows{ClassOf: make([]int32, n), ClassRow: make([][]uint64, n), ClassCol: make([][]uint64, n)}
	for x := 0; x < n; x++ {
		rows.ClassOf[x] = int32(x)
		rows.ClassRow[x], rows.ClassCol[x] = make([]uint64, w), make([]uint64, w)
	}
	for x := 0; x < n; x++ {
		anyConflictOut(cs, dir, x, func(y int) bool {
			graph.BitSet(rows.ClassRow[x], y)
			graph.BitSet(rows.ClassCol[y], x)
			return false
		})
	}
	if rem == nil {
		rem = func(a, b, z int) bool { return false }
	}
	cover := func(a, b int, scratch []uint64) ([]uint64, int) {
		clear(scratch)
		for z := 0; z < n; z++ {
			if rem(a, b, z) {
				graph.BitSet(scratch, z)
			}
		}
		if ids == nil {
			return scratch, -1
		}
		return scratch, ids(a, b)
	}
	return Constraints{DirRows: rows, Comp: graph.CondenseMixed(ag.Succ, rows), Removed: rem, RemovedCover: cover}
}

// classedQuery re-classes the identity-classed query q by the partition
// that interning (directed row, directed column, conflict row, x mod 5)
// yields: a classing the engine may use whenever q's removal depends on
// each endpoint only through its residue mod 5, as both test removals do.
func classedQuery(cs *conflict.Set, q Constraints) Constraints {
	per := q.DirRows
	n := len(per.ClassOf)
	rows := &graph.ClassRows{ClassOf: make([]int32, n)}
	var classes graph.RowInterner
	var key []uint64
	for x := 0; x < n; x++ {
		key = append(key[:0], per.Row(x)...)
		key = append(key, per.ClassCol[x]...)
		key = append(key, cs.Row(x)...)
		key = append(key, uint64(x%5))
		c, fresh := classes.Intern(key)
		rows.ClassOf[x] = c
		if fresh {
			rows.ClassRow = append(rows.ClassRow, per.Row(x))
			rows.ClassCol = append(rows.ClassCol, per.ClassCol[x])
		}
	}
	q.DirRows = rows
	return q
}

// removedMod5 is the grid's synthetic removal, and coverMod5 numbers its
// covers: the cover of (a, b) depends on the pair only through
// (a + 2b) mod 5.
func removedMod5(a, b, z int) bool { return (a+2*b+3*z)%5 == 0 }
func coverMod5(a, b int) int       { return (a + 2*b) % 5 }

// diffVariants returns the constraint variants the differential tests
// exercise, spanning both shapes Constraints expresses: the symmetric query
// (the hub solver) plain, skipping and keeping endpoints, and the oriented
// query (the class solver), every access its own class, without and with
// removal, its covers with and without shared ids, under each endpoint
// filter. Hooks are synthetic but deterministic.
func diffVariants(ag *ir.AccessGraph, cs *conflict.Set) []variant {
	n := cs.N()
	var sparse []int
	for i := 0; i < n; i += 7 {
		sparse = append(sparse, i)
	}
	skip := EndpointFilter{IDs: sparse}
	keep := EndpointFilter{IDs: sparse, Keep: true}
	oriented := directedQuery(ag, cs, pairDir, nil, nil)
	removed := directedQuery(ag, cs, pairDir, removedMod5, nil)
	shared := directedQuery(ag, cs, pairDir, removedMod5, coverMod5)
	removedSkip, sharedKeep := removed, shared
	removedSkip.Endpoints, sharedKeep.Endpoints = skip, keep
	return []variant{
		{"plain", Constraints{}},
		{"skip", Constraints{Endpoints: skip}},
		{"keep", Constraints{Endpoints: keep}},
		{"oriented", oriented},
		{"oriented+removed", removed},
		{"oriented+removed+ids", shared},
		{"oriented+removed+skip", removedSkip},
		{"oriented+removed+ids+keep", sharedKeep},
	}
}

// syncIDsOf lists fn's synchronization accesses, the endpoints of D1.
func syncIDsOf(fn *ir.Fn) []int {
	ids := []int{}
	for _, a := range fn.Accesses {
		if a.Kind.IsSync() {
			ids = append(ids, a.ID)
		}
	}
	return ids
}

func pairsEqual(t *testing.T, label string, got, want *Set) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s: got %d pairs, reference has %d\ngot:\n%swant:\n%s",
			label, got.Size(), want.Size(), got, want)
	}
	for _, p := range want.Pairs() {
		if !got.Has(p.A, p.B) {
			t.Fatalf("%s: reference pair [%d,%d] missing from the engine", label, p.A, p.B)
		}
	}
}

// TestBatchedMatchesReference proves the production engine computes delay
// sets pair-identical to the per-pair reference search, across progen
// seeds, every constraint variant, and worker counts 1, 2, 3 and 8.
func TestBatchedMatchesReference(t *testing.T) {
	defer func(w int) { Workers = w }(Workers)
	checked := 0
	for seed := int64(0); seed < 80; seed++ {
		fn := genFn(seed)
		if fn == nil || len(fn.Accesses) == 0 {
			continue
		}
		ag := ir.BuildAccessGraph(fn)
		cs := conflict.Compute(fn)
		for _, v := range diffVariants(ag, cs) {
			want := ComputeReference(ag, cs, v.con)
			for _, nw := range []int{1, 2, 3, 8} {
				Workers = nw
				label := fmt.Sprintf("seed %d %s (n=%d, workers=%d)", seed, v.name, len(fn.Accesses), nw)
				pairsEqual(t, label, Compute(ag, cs, v.con), want)
			}
		}
		checked++
	}
	if checked < 50 {
		t.Fatalf("only %d buildable seeds, want >= 50", checked)
	}
}

// TestEndpointFilterMatchesPerPairFilter proves the identity syncanal's D1
// and its deferred baseline rest on: a query under an endpoint filter
// returns exactly the unfiltered set with each pair kept or dropped on its
// own endpoints. The right-hand side is the oracle's, spelled out: the
// reference engine's unfiltered set, filtered pair by pair. It holds because
// no solver lets the pairs asked about influence one pair's answer; it is
// checked in both polarities for every constraint variant (its own filter
// replaced), with the synchronization accesses as the listed endpoints.
func TestEndpointFilterMatchesPerPairFilter(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 150; seed++ {
		fn := genFn(seed)
		if fn == nil || len(fn.Accesses) == 0 {
			continue
		}
		ag := ir.BuildAccessGraph(fn)
		cs := conflict.Compute(fn)
		syncIDs := syncIDsOf(fn)
		for _, v := range diffVariants(ag, cs) {
			ref := v.con
			ref.Endpoints = EndpointFilter{}
			all := ComputeReference(ag, cs, ref).Pairs()
			for _, keep := range []bool{true, false} {
				con := v.con
				con.Endpoints = EndpointFilter{IDs: syncIDs, Keep: keep}
				want := NewSet(fn)
				for _, p := range all {
					if sync := fn.Accesses[p.A].Kind.IsSync() || fn.Accesses[p.B].Kind.IsSync(); sync == keep {
						want.Add(p.A, p.B)
					}
				}
				pairsEqual(t, fmt.Sprintf("seed %d %s keep=%v (n=%d)", seed, v.name, keep, len(fn.Accesses)), Compute(ag, cs, con), want)
			}
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d of 150 seeds built, want >= 100", checked)
	}
}

// TestEndpointPolaritiesPartition holds the production engine to the split
// syncanal builds the baseline from: the keep and skip queries over the
// synchronization accesses (D1 and the remainder) are disjoint and their
// union is the unfiltered set, pair-identical, for every constraint variant
// on the 150-seed grid. TestHubWorkAcc2048 checks the same split at 2k
// accesses.
func TestEndpointPolaritiesPartition(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 150; seed++ {
		fn := genFn(seed)
		if fn == nil || len(fn.Accesses) == 0 {
			continue
		}
		ag := ir.BuildAccessGraph(fn)
		cs := conflict.Compute(fn)
		syncIDs := syncIDsOf(fn)
		for _, v := range diffVariants(ag, cs) {
			label := fmt.Sprintf("seed %d %s (n=%d)", seed, v.name, len(fn.Accesses))
			whole := v.con
			whole.Endpoints = EndpointFilter{}
			keep, skip := v.con, v.con
			keep.Endpoints = EndpointFilter{IDs: syncIDs, Keep: true}
			skip.Endpoints = EndpointFilter{IDs: syncIDs}
			checkPartition(t, label, Compute(ag, cs, keep), Compute(ag, cs, skip), Compute(ag, cs, whole))
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d of 150 seeds built, want >= 100", checked)
	}
}

// checkPartition requires keep and skip to be disjoint with union whole.
func checkPartition(t *testing.T, label string, keep, skip, whole *Set) {
	t.Helper()
	if keep.Size()+skip.Size() != whole.Size() {
		t.Fatalf("%s: |keep| %d + |skip| %d != |whole| %d", label, keep.Size(), skip.Size(), whole.Size())
	}
	pairsEqual(t, label+" keep ∪ skip", keep.Union(skip), whole)
}

// TestComputeDeterministicAcrossWorkers locks down that the worker count
// never changes the computed set: results land in index-addressed slots
// and merge in pair order.
func TestComputeDeterministicAcrossWorkers(t *testing.T) {
	defer func(w int) { Workers = w }(Workers)
	fn := genFn(3)
	for seed := int64(3); fn == nil; seed++ {
		fn = genFn(seed)
	}
	ag := ir.BuildAccessGraph(fn)
	cs := conflict.Compute(fn)
	for _, v := range diffVariants(ag, cs) {
		Workers = 1
		seq := Compute(ag, cs, v.con)
		for _, nw := range []int{2, 3, 8} {
			Workers = nw
			par := Compute(ag, cs, v.con)
			pairsEqual(t, fmt.Sprintf("%s workers=%d", v.name, nw), par, seq)
			if fmt.Sprint(par.Pairs()) != fmt.Sprint(seq.Pairs()) {
				t.Fatalf("%s: pair ordering differs at %d workers", v.name, nw)
			}
		}
	}
}

// TestOffShapeQueriesPanic: Compute and ComputeReference refuse a query
// outside the two shapes Constraints describes, with a panic that names the
// field out of place, and accept every shape the differentials build
// (diffVariants, denseVariants and each mode of FuzzBackPathEquivalence).
func TestOffShapeQueriesPanic(t *testing.T) {
	fn := genFn(3)
	for seed := int64(3); fn == nil || len(fn.Accesses) == 0; seed++ {
		fn = genFn(seed)
	}
	ag := ir.BuildAccessGraph(fn)
	cs := conflict.Compute(fn)
	engines := []struct {
		name string
		run  func(Constraints) *Set
	}{
		{"Compute", func(c Constraints) *Set { return Compute(ag, cs, c) }},
		{"ComputeReference", func(c Constraints) *Set { return ComputeReference(ag, cs, c) }},
	}
	panicOf := func(run func(Constraints) *Set, con Constraints) (msg any) {
		defer func() { msg = recover() }()
		run(con)
		return nil
	}

	oriented := directedQuery(ag, cs, pairDir, removedMod5, coverMod5)
	noCol, noComp, noRemoved, noCover := oriented, oriented, oriented, oriented
	rows := *oriented.DirRows
	rows.ClassCol = nil
	noCol.DirRows = &rows
	noComp.Comp = nil
	noRemoved.Removed = nil
	noCover.RemovedCover = nil
	for _, bad := range []struct {
		con   Constraints
		field string
	}{
		{Constraints{Removed: removedMod5}, "Removed"},
		{Constraints{Comp: oriented.Comp}, "Comp"},
		{Constraints{RemovedCover: oriented.RemovedCover}, "RemovedCover"},
		{noCol, "ClassCol"},
		{noComp, "Comp"},
		{noRemoved, "Removed"},
		{noCover, "RemovedCover"},
	} {
		for _, e := range engines {
			msg, _ := panicOf(e.run, bad.con).(string)
			if !strings.Contains(msg, bad.field) {
				t.Fatalf("%s on a query off shape at %s: panic %q, want one naming the field", e.name, bad.field, msg)
			}
		}
	}

	good := append(diffVariants(ag, cs), denseVariants(ag, cs)...)
	for mode := 0; mode < 64; mode++ {
		good = append(good, variant{fmt.Sprintf("fuzz mode %d", mode), fuzzQuery(ag, cs, uint8(mode))})
	}
	for _, v := range good {
		for _, e := range engines {
			if msg := panicOf(e.run, v.con); msg != nil {
				t.Fatalf("%s on %s: panic %v", e.name, v.name, msg)
			}
		}
	}
}
