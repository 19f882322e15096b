package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestReachableFrom(t *testing.T) {
	g := make(digraph, 5)
	g.addEdge(0, 1)
	g.addEdge(1, 2)
	g.addEdge(3, 4)
	r := g.ReachableFrom(0)
	want := []bool{true, true, true, false, false}
	for i := range want {
		if r[i] != want[i] {
			t.Errorf("reach[%d] = %v, want %v", i, r[i], want[i])
		}
	}
}

func TestSCCSimple(t *testing.T) {
	// 0 <-> 1, 2 alone, 3 -> 0
	g := make(digraph, 4)
	g.addEdge(0, 1)
	g.addEdge(1, 0)
	g.addEdge(3, 0)
	comp, n := g.SCC()
	if n != 3 {
		t.Fatalf("got %d components, want 3", n)
	}
	if comp[0] != comp[1] {
		t.Error("0 and 1 should share a component")
	}
	if comp[2] == comp[0] || comp[3] == comp[0] {
		t.Error("2 and 3 should be singletons")
	}
}

func TestSCCReverseTopoOrder(t *testing.T) {
	// a -> b means comp[a] > comp[b] for Tarjan's reverse topological output.
	g := make(digraph, 3)
	g.addEdge(0, 1)
	g.addEdge(1, 2)
	comp, n := g.SCC()
	if n != 3 {
		t.Fatalf("got %d components, want 3", n)
	}
	if !(comp[0] > comp[1] && comp[1] > comp[2]) {
		t.Errorf("components not in reverse topological order: %v", comp)
	}
}

func TestSCCBigCycle(t *testing.T) {
	const n = 1000
	g := make(digraph, n)
	for i := 0; i < n; i++ {
		g.addEdge(i, (i+1)%n)
	}
	comp, nc := g.SCC()
	if nc != 1 {
		t.Fatalf("got %d components, want 1", nc)
	}
	for i := 1; i < n; i++ {
		if comp[i] != comp[0] {
			t.Fatalf("node %d in different component", i)
		}
	}
}

func TestTransitiveClosure(t *testing.T) {
	g := make(digraph, 3)
	g.addEdge(0, 1)
	g.addEdge(1, 2)
	tc := g.TransitiveClosure()
	if !tc[0][2] {
		t.Error("0 should reach 2")
	}
	if tc[2][0] {
		t.Error("2 should not reach 0")
	}
	if !tc[1][1] {
		t.Error("nodes trivially reach themselves in TransitiveClosure")
	}
}

// Property: SCC component count equals number of distinct components, and
// two nodes share a component iff each reaches the other.
func TestSCCAgainstReachability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		g := make(digraph, n)
		for e := 0; e < rng.Intn(2*n); e++ {
			g.addEdge(rng.Intn(n), rng.Intn(n))
		}
		comp, _ := g.SCC()
		tc := g.TransitiveClosure()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				mutual := tc[u][v] && tc[v][u]
				if (comp[u] == comp[v]) != mutual {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
