package conflict

import (
	"math/bits"
	"testing"

	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/progen"
	"repro/internal/sem"
	"repro/internal/source"
)

// TestGroupedMatchesPairwise verifies the group-based conflict computation
// against a direct pairwise sweep of conflicts(), and checks the exported
// group structure (GroupOf/GroupMembers/GroupAdj) agrees with the matrix.
func TestGroupedMatchesPairwise(t *testing.T) {
	built := 0
	for seed := int64(0); seed < 120 && built < 60; seed++ {
		fn := buildProgen(t, seed)
		if fn == nil {
			continue
		}
		built++
		s := Compute(fn)
		n := len(fn.Accesses)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				want := conflicts(fn, fn.Accesses[i], fn.Accesses[j])
				if s.Conflicts(i, j) != want || s.Conflicts(j, i) != want {
					t.Fatalf("seed %d: Conflicts(%d,%d)=%v want %v", seed, i, j, s.Conflicts(i, j), want)
				}
			}
		}
		// Group structure: membership partitions the accesses, and the
		// group adjacency reproduces every matrix bit.
		covered := 0
		for g := 0; g < s.NumGroups(); g++ {
			for _, w := range s.GroupMembers(g) {
				covered += bits.OnesCount64(w)
			}
		}
		if covered != n {
			t.Fatalf("seed %d: group members cover %d of %d accesses", seed, covered, n)
		}
		for i := 0; i < n; i++ {
			if !graph.BitGet(s.GroupMembers(int(s.GroupOf(i))), i) {
				t.Fatalf("seed %d: access %d missing from its group %d", seed, i, s.GroupOf(i))
			}
			for j := 0; j < n; j++ {
				inAdj := false
				for _, gj := range s.GroupAdj(int(s.GroupOf(i))) {
					if gj == s.GroupOf(j) {
						inAdj = true
						break
					}
				}
				if inAdj != s.Conflicts(i, j) {
					t.Fatalf("seed %d: group adjacency disagrees with matrix at (%d,%d)", seed, i, j)
				}
			}
		}
	}
	if built < 40 {
		t.Fatalf("only %d progen programs built", built)
	}
}

func buildProgen(t *testing.T, seed int64) *ir.Fn {
	t.Helper()
	src := progen.Generate(seed, progen.Options{
		Procs: 4, MaxPhases: 3, MaxStmts: 6, MaxDepth: 2,
		Arrays: 2, Scalars: 2, Events: 2, Locks: 2,
	})
	prog, err := source.Parse(src)
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
