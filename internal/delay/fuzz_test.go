package delay

import (
	"testing"

	"repro/internal/conflict"
	"repro/internal/ir"
)

// FuzzBackPathEquivalence fuzzes the production engine against the
// per-pair reference search: any seed/mode combination that produces a
// buildable program must yield pair-identical delay sets. The mode bits
// pick the constraint shape — 1 the oriented query (the class solver;
// without it the symmetric one, the hub solver), and on top of it 2 a
// removal, 4 cover ids, 16 a classing (orientation by conflict group,
// classed by classedQuery) — and 8 an endpoint filter, skipping its
// endpoints, or keeping them with 32.
func FuzzBackPathEquivalence(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		for mode := uint8(0); mode < 64; mode += 3 {
			f.Add(seed, mode)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, mode uint8) {
		fn := genFn(seed)
		if fn == nil || len(fn.Accesses) == 0 {
			t.Skip("seed does not build")
		}
		ag := ir.BuildAccessGraph(fn)
		cs := conflict.Compute(fn)
		con := fuzzQuery(ag, cs, mode)
		want := ComputeReference(ag, cs, con)
		got := Compute(ag, cs, con)
		if got.Size() != want.Size() {
			t.Fatalf("mode %d: got %d pairs, reference %d\ngot:\n%swant:\n%s",
				mode, got.Size(), want.Size(), got, want)
		}
		for _, p := range want.Pairs() {
			if !got.Has(p.A, p.B) {
				t.Fatalf("mode %d: reference pair [%d,%d] missing", mode, p.A, p.B)
			}
		}
	})
}

// fuzzQuery builds the query FuzzBackPathEquivalence's mode bits pick.
func fuzzQuery(ag *ir.AccessGraph, cs *conflict.Set, mode uint8) Constraints {
	con := Constraints{}
	if mode&1 != 0 {
		dir := pairDir
		if mode&16 != 0 {
			dir = groupDir(cs)
		}
		var rem func(a, b, z int) bool
		var ids func(a, b int) int
		if mode&2 != 0 {
			rem = removedMod5
		}
		if mode&4 != 0 {
			ids = coverMod5
		}
		con = directedQuery(ag, cs, dir, rem, ids)
		if mode&16 != 0 {
			con = classedQuery(cs, con)
		}
	}
	if mode&8 != 0 {
		con.Endpoints.Keep = mode&32 != 0
		for i := 0; i < cs.N(); i += 7 {
			con.Endpoints.IDs = append(con.Endpoints.IDs, i)
		}
	}
	return con
}
