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

// diffVariants returns the constraint variants the differential tests
// exercise, spanning every engine mode: plain, oriented (ConflictDir and
// its DirRows bit-matrix form), pair-filtered, endpoint-restricted in both
// modes (the sparse include list drives the reverse-sweep flip), per-pair
// (Removed, with and without a RemovedCover screen), combinations, and the
// exact search. Hooks are synthetic but deterministic.
func diffVariants(fn *ir.Fn, cs *conflict.Set) []struct {
	name string
	con  Constraints
} {
	n := len(fn.Accesses)
	isSync := func(a, b int) bool {
		return fn.Accesses[a].Kind.IsSync() || fn.Accesses[b].Kind.IsSync()
	}
	cdir := func(x, y int) bool { return (x+y)%3 != 0 || x <= y }
	rem := func(a, b, z int) bool { return (a+2*b+3*z)%5 == 0 }
	cover := func(a, b int, scratch []uint64) []uint64 {
		for i := range scratch {
			scratch[i] = 0
		}
		for z := 0; z < n; z++ {
			if rem(a, b, z) {
				graph.BitSet(scratch, z)
			}
		}
		return scratch
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
	return []struct {
		name string
		con  Constraints
	}{
		{"plain", Constraints{}},
		{"dir", Constraints{ConflictDir: cdir}},
		{"dirrows", Constraints{DirRows: dirRows}},
		{"filter", Constraints{PairFilter: isSync}},
		{"endpoints-inc", Constraints{Endpoints: sparse}},
		{"endpoints-exc", Constraints{Endpoints: sparse, EndpointsMode: EndpointsExclude}},
		{"endpoints-inc+dir", Constraints{Endpoints: sparse, ConflictDir: cdir}},
		{"removed", Constraints{Removed: rem}},
		{"removed+cover", Constraints{Removed: rem, RemovedCover: cover}},
		{"dir+removed+filter", Constraints{ConflictDir: cdir, Removed: rem, PairFilter: isSync}},
		{"dirrows+removed+cover+inc", Constraints{DirRows: dirRows, Removed: rem, RemovedCover: cover, Endpoints: sparse}},
		{"exact", Constraints{Exact: true, MaxExactNodes: 1 << 20}},
	}
}

func pairsEqual(t *testing.T, label string, got, want *Set) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s: got %d pairs, reference has %d\ngot:\n%swant:\n%s",
			label, got.Size(), want.Size(), got, want)
	}
	for _, p := range want.Pairs() {
		if !got.Has(p.A, p.B) {
			t.Fatalf("%s: reference pair [%d,%d] missing from batched engine", label, p.A, p.B)
		}
	}
}

// TestBatchedMatchesReference proves the regionized engine (the default)
// and the whole-graph batched engine both compute delay sets
// pair-identical to the per-pair reference search, across progen seeds and
// every constraint variant.
func TestBatchedMatchesReference(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 80; seed++ {
		fn := genFn(seed)
		if fn == nil || len(fn.Accesses) == 0 {
			continue
		}
		ag := ir.BuildAccessGraph(fn)
		cs := conflict.Compute(fn)
		for _, v := range diffVariants(fn, cs) {
			if v.con.Exact && len(fn.Accesses) > 18 {
				continue // the simple-path search is exponential on dense
				// progen conflict graphs; keep it affordable
			}
			label := fmt.Sprintf("seed %d %s (n=%d)", seed, v.name, len(fn.Accesses))
			got := Compute(ag, cs, v.con)
			ref := v.con
			ref.Reference = true
			want := Compute(ag, cs, ref)
			pairsEqual(t, label, got, want)
			whole := v.con
			whole.Engine = EngineWhole
			pairsEqual(t, label+" [whole]", Compute(ag, cs, whole), want)
		}
		checked++
	}
	if checked < 50 {
		t.Fatalf("only %d buildable seeds, want >= 50", checked)
	}
}

// TestWithEndpointMatchesRestrictedCompute proves the identity syncanal's
// D1 rests on: masking a computed set to the pairs with a listed endpoint
// gives exactly the set computed under that endpoint restriction. It holds
// because no engine lets the pairs asked about influence one pair's answer;
// it is checked for every constraint variant that does not restrict
// endpoints itself (the exact search included), on the dense sets of the
// regionized engine and the sparse sets of the whole-graph one, with the
// synchronization accesses as the listed endpoints.
func TestWithEndpointMatchesRestrictedCompute(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 150; seed++ {
		fn := genFn(seed)
		if fn == nil || len(fn.Accesses) == 0 {
			continue
		}
		ag := ir.BuildAccessGraph(fn)
		cs := conflict.Compute(fn)
		syncIDs := []int{}
		for _, a := range fn.Accesses {
			if a.Kind.IsSync() {
				syncIDs = append(syncIDs, a.ID)
			}
		}
		for _, v := range diffVariants(fn, cs) {
			if v.con.Endpoints != nil || v.con.Exact && len(fn.Accesses) > 18 {
				continue
			}
			for _, eng := range []Engine{EngineRegion, EngineWhole} {
				con := v.con
				con.Engine = eng
				got := Compute(ag, cs, con).WithEndpoint(syncIDs)
				con.Endpoints = syncIDs
				label := fmt.Sprintf("seed %d %s engine %d (n=%d)", seed, v.name, eng, len(fn.Accesses))
				pairsEqual(t, label, got, Compute(ag, cs, con))
			}
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d of 150 seeds built, want >= 100", checked)
	}
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
