package delay

import (
	"testing"

	"repro/internal/conflict"
	"repro/internal/graph"
	"repro/internal/ir"
)

// FuzzBackPathEquivalence fuzzes the production engine against the
// per-pair reference search: any seed/mode combination that produces a
// buildable program must yield pair-identical delay sets. The mode bits
// pick the constraint shape — 1 orientation, 2 removal, 4 orientation as
// DirRows instead of ConflictDir, 8 an endpoint filter (skipping its
// endpoints, or keeping them with 32), 16 a RemovedCover screen.
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
		n := len(fn.Accesses)
		ag := ir.BuildAccessGraph(fn)
		cs := conflict.Compute(fn)
		con := Constraints{}
		if mode&1 != 0 {
			cdir := func(x, y int) bool { return (x+y)%3 != 0 || x <= y }
			if mode&4 == 0 {
				con.ConflictDir = cdir
			} else {
				rows := directedRows(cs, cdir)
				con.DirRows = rows
			}
		}
		if mode&2 != 0 {
			rem := func(a, b, z int) bool { return (a+2*b+3*z)%5 == 0 }
			con.Removed = rem
			if mode&16 != 0 {
				con.RemovedCover = func(a, b int, scratch []uint64) ([]uint64, int) {
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
			}
		}
		if mode&8 != 0 {
			con.Endpoints.Keep = mode&32 != 0
			for i := 0; i < n; i += 7 {
				con.Endpoints.IDs = append(con.Endpoints.IDs, i)
			}
		}
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
