package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func randomDigraph(rng *rand.Rand, n int, p float64) digraph {
	g := make(digraph, n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if rng.Float64() < p {
				g.addEdge(u, v)
			}
		}
	}
	return g
}

func digraphIter(g digraph) func(u int, visit func(v int32)) {
	return func(u int, visit func(v int32)) {
		for _, v := range g[u] {
			visit(int32(v))
		}
	}
}

// TestCondenseMatchesSCC checks Condense against the list-based Tarjan and
// verifies the structural invariants of the condensation: component
// agreement (up to renaming both emit reverse topological indices, so they
// must match exactly), member partitioning, edges between components
// pointing from higher to lower indices, and one visit per edge.
func TestCondenseMatchesSCC(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		g := randomDigraph(rng, n, []float64{0.02, 0.05, 0.1, 0.3}[rng.Intn(4)])
		c := Condense(n, digraphIter(g))
		comp, ncomp := g.SCC()
		if c.NComp != ncomp {
			t.Fatalf("trial %d: NComp %d, SCC says %d", trial, c.NComp, ncomp)
		}
		for v := 0; v < n; v++ {
			if int(c.Comp[v]) != comp[v] {
				t.Fatalf("trial %d: node %d in comp %d, SCC says %d", trial, v, c.Comp[v], comp[v])
			}
		}
		seen := 0
		for cc, ms := range c.Members {
			for i, v := range ms {
				if i > 0 && ms[i-1] >= v {
					t.Fatalf("trial %d: comp %d members not ascending: %v", trial, cc, ms)
				}
				if int(c.Comp[v]) != cc {
					t.Fatalf("trial %d: member %d of comp %d has Comp %d", trial, v, cc, c.Comp[v])
				}
				seen++
			}
		}
		if seen != n {
			t.Fatalf("trial %d: members cover %d of %d nodes", trial, seen, n)
		}
		for u, succs := range g {
			for _, v := range succs {
				if c.Comp[v] > c.Comp[u] {
					t.Fatalf("trial %d: edge %d -> %d ascends from comp %d to %d", trial, u, v, c.Comp[u], c.Comp[v])
				}
			}
		}
		if want := edgeCount(g); c.Edges != want {
			t.Fatalf("trial %d: %d edges visited, graph has %d", trial, c.Edges, want)
		}
	}
}

// TestReachRowsMatchesTransitiveClosure checks the condensation-DP closure
// against the per-source BFS closure, including the length >= 1 convention
// (a node reaches itself only through a cycle or self-edge), and that it
// keeps one row per component.
func TestReachRowsMatchesTransitiveClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		g := randomDigraph(rng, n, []float64{0.02, 0.05, 0.1, 0.3}[rng.Intn(4)])
		c := Condense(n, digraphIter(g))
		got := c.ReachRows(n, digraphIter(g))
		if len(got.ClassRow) != c.NComp {
			t.Fatalf("trial %d: %d closure rows for %d components", trial, len(got.ClassRow), c.NComp)
		}
		for u := 0; u < n; u++ {
			want := make([]bool, n)
			for _, v := range g[u] {
				if !want[v] {
					want[v] = true
				}
			}
			stack := []int{}
			for v, ok := range want {
				if ok {
					stack = append(stack, v)
				}
			}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, v := range g[x] {
					if !want[v] {
						want[v] = true
						stack = append(stack, v)
					}
				}
			}
			for v := 0; v < n; v++ {
				if BitGet(got.Row(u), v) != want[v] {
					t.Fatalf("trial %d: reach(%d, %d) = %v, want %v", trial, u, v, !want[v], want[v])
				}
			}
		}
	}
}

func edgeCount(g digraph) int {
	e := 0
	for _, succs := range g {
		e += len(succs)
	}
	return e
}

// TestCondenseMixedMatchesPerAccess checks the class-routed condensation
// against Condense over the expanded per-access edges: on random
// class-congruent ClassRows and on a BitMatrix, each beside sparse
// program-order adjacency, both must give the same components as member
// sets, members ascending, with no component made only of class nodes.
func TestCondenseMixedMatchesPerAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(150)
		adj := make([][]int, n)
		for u := range adj {
			for rng.Intn(3) == 0 {
				adj[u] = append(adj[u], rng.Intn(n))
			}
		}
		// A congruent classing: class rows are unions of whole classes.
		k := 1 + rng.Intn(min(n, 12))
		classOf := make([]int32, n)
		for u := range classOf {
			classOf[u] = int32(rng.Intn(k))
		}
		p := []float64{0.02, 0.1, 0.3}[rng.Intn(3)]
		classRows := make([][]uint64, k)
		for c := range classRows {
			classRows[c] = make([]uint64, WordsFor(n))
			for d := 0; d < k; d++ {
				if rng.Float64() < p {
					for v, cv := range classOf {
						if cv == int32(d) {
							BitSet(classRows[c], v)
						}
					}
				}
			}
		}
		bm := NewBitMatrix(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if rng.Float64() < p/8 {
					bm.Set(u, v)
				}
			}
		}
		for _, rows := range []Rows{NewClassRows(classOf, classRows, n), bm} {
			g := make(digraph, n)
			for u := 0; u < n; u++ {
				for _, v := range adj[u] {
					g.addEdge(u, v)
				}
				for v := 0; v < n; v++ {
					if BitGet(rows.Row(u), v) {
						g.addEdge(u, v)
					}
				}
			}
			got, want := CondenseMixed(adj, rows), Condense(n, digraphIter(g))
			if got.NComp != want.NComp || len(got.Comp) != n {
				t.Fatalf("trial %d (%T): %d components over %d nodes, per-access %d over %d",
					trial, rows, got.NComp, len(got.Comp), want.NComp, n)
			}
			wantSets := map[string]bool{}
			for _, ms := range want.Members {
				wantSets[fmt.Sprint(ms)] = true
			}
			for cc, ms := range got.Members {
				if !wantSets[fmt.Sprint(ms)] {
					t.Fatalf("trial %d (%T): component %v is not a per-access component", trial, rows, ms)
				}
				for i, v := range ms {
					if v >= int32(n) || i > 0 && ms[i-1] >= v || got.Comp[v] != int32(cc) {
						t.Fatalf("trial %d (%T): component %d members %v: not ascending accesses of it", trial, rows, cc, ms)
					}
				}
			}
		}
	}
}

// TestTranspose checks the 64x64 block transpose against per-bit flipping
// at sizes around the word boundaries.
func TestTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 7, 63, 64, 65, 100, 127, 128, 130, 200} {
		m := NewBitMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Intn(3) == 0 {
					m.Set(i, j)
				}
			}
		}
		tr := m.Transpose()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if tr.Has(j, i) != m.Has(i, j) {
					t.Fatalf("n=%d: transpose(%d,%d) mismatch", n, j, i)
				}
			}
		}
	}
}

// TestTransposeInPlace checks the in-place transpose against per-bit
// flipping and against Transpose at sizes around the word and block
// boundaries, and that applying it twice gives back the original.
func TestTransposeInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 63, 64, 65, 127, 129, 2010} {
		m := NewBitMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Intn(3) == 0 {
					m.Set(i, j)
				}
			}
		}
		orig := append([]uint64(nil), m.Words()...)
		want := m.Transpose()
		m.TransposeInPlace()
		if !slices.Equal(m.Words(), want.Words()) {
			t.Fatalf("n=%d: in-place transpose differs from Transpose", n)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if m.Has(j, i) != BitGet(orig[i*m.W:], j) {
					t.Fatalf("n=%d: transpose(%d,%d) mismatch", n, j, i)
				}
			}
		}
		m.TransposeInPlace()
		if !slices.Equal(m.Words(), orig) {
			t.Fatalf("n=%d: transposing twice does not give back the original", n)
		}
	}
}
