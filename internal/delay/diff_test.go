package delay

import (
	"fmt"
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

// diffVariants returns the constraint variants the differential tests
// exercise, spanning every shape Constraints can express: plain (the hub
// solver), oriented (ConflictDir and its DirRows bit-matrix form), skipped
// and kept endpoints, per-pair removal (with and without a RemovedCover
// screen), and their combinations — including the symmetric-but-removed
// shapes no production caller requests, which Compute must still answer.
// Hooks are synthetic but deterministic.
func diffVariants(fn *ir.Fn, cs *conflict.Set) []variant {
	n := len(fn.Accesses)
	cdir := func(x, y int) bool { return (x+y)%3 != 0 || x <= y }
	rem := func(a, b, z int) bool { return (a+2*b+3*z)%5 == 0 }
	cover := func(a, b int, scratch []uint64) ([]uint64, int) {
		for i := range scratch {
			scratch[i] = 0
		}
		for z := 0; z < n; z++ {
			if rem(a, b, z) {
				graph.BitSet(scratch, z)
			}
		}
		return scratch, -1
	}
	var sparse []int
	for i := 0; i < n; i += 7 {
		sparse = append(sparse, i)
	}
	dirRows := graph.NewBitMatrix(n)
	for x := 0; x < n; x++ {
		for _, y := range cs.Partners(x) {
			if cdir(x, y) {
				dirRows.Set(x, y)
			}
		}
	}
	skip := EndpointFilter{IDs: sparse}
	keep := EndpointFilter{IDs: sparse, Keep: true}
	return []variant{
		{"plain", Constraints{}},
		{"dir", Constraints{ConflictDir: cdir}},
		{"dirrows", Constraints{DirRows: dirRows}},
		{"skip", Constraints{Endpoints: skip}},
		{"keep", Constraints{Endpoints: keep}},
		{"skip+dir", Constraints{Endpoints: skip, ConflictDir: cdir}},
		{"keep+dir", Constraints{Endpoints: keep, ConflictDir: cdir}},
		{"removed", Constraints{Removed: rem}},
		{"removed+cover", Constraints{Removed: rem, RemovedCover: cover}},
		{"removed+cover+skip", Constraints{Removed: rem, RemovedCover: cover, Endpoints: skip}},
		{"removed+cover+keep", Constraints{Removed: rem, RemovedCover: cover, Endpoints: keep}},
		{"dir+removed", Constraints{ConflictDir: cdir, Removed: rem}},
		{"dirrows+removed+cover+skip", Constraints{DirRows: dirRows, Removed: rem, RemovedCover: cover, Endpoints: skip}},
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
		for _, v := range diffVariants(fn, cs) {
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
		for _, v := range diffVariants(fn, cs) {
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
		for _, v := range diffVariants(fn, cs) {
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
	for _, v := range diffVariants(fn, cs) {
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
