package graph

import (
	"math/rand"
	"testing"
)

// bruteAvoid computes reachability from seeds with the vertex `avoid`
// removed entirely (seeds equal to avoid dropped).
func bruteAvoid(g *Digraph, seeds []int32, avoid int) []bool {
	seen := make([]bool, g.N)
	var stack []int
	for _, s := range seeds {
		if int(s) == avoid || seen[s] {
			continue
		}
		seen[s] = true
		stack = append(stack, int(s))
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.Adj[u] {
			if v == avoid || seen[v] {
				continue
			}
			seen[v] = true
			stack = append(stack, v)
		}
	}
	return seen
}

// TestFlowDomMatchesBruteForce checks what FlowDom promises against direct
// search with the vertex removed, over random graphs, seed sets, and
// avoided vertices: Reach visits exactly the reachable nodes, and a visited
// y outside the first-visit subtree of a visited a (by TreeTimes'
// intervals) is reachable avoiding a (the screen is exact when it says so;
// it may stay silent, which is why callers keep an exact search behind it).
func TestFlowDomMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	screened := 0
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(14)
		g := New(n)
		edges := rng.Intn(3 * n)
		for e := 0; e < edges; e++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		fd := NewFlowDom(BuildCSR(n,
			func(u int) int { return len(g.Adj[u]) },
			func(u int, out []int32) {
				for i, v := range g.Adj[u] {
					out[i] = int32(v)
				}
			}))
		for srcTrial := 0; srcTrial < 4; srcTrial++ {
			var seeds []int32
			for len(seeds) == 0 {
				for v := 0; v < n; v++ {
					if rng.Intn(3) == 0 {
						seeds = append(seeds, int32(v))
					}
				}
			}
			fd.Reach(seeds)
			plain := bruteAvoid(g, seeds, -1)
			for v := 0; v < n; v++ {
				if fd.Visited(v) != plain[v] {
					t.Fatalf("trial %d: Visited(%d) = %v, brute = %v", trial, v, fd.Visited(v), plain[v])
				}
			}
			if len(fd.Order()) != countTrue(plain) {
				t.Fatalf("trial %d: Order lists %d nodes, brute reaches %d", trial, len(fd.Order()), countTrue(plain))
			}
			tin, tout := fd.TreeTimes()
			for avoid := 0; avoid < n; avoid++ {
				if !fd.Visited(avoid) {
					continue
				}
				want := bruteAvoid(g, seeds, avoid)
				for y := 0; y < n; y++ {
					if y == avoid || !fd.Visited(y) || tin[avoid] <= tin[y] && tin[y] <= tout[avoid] {
						continue
					}
					screened++
					if !want[y] {
						t.Fatalf("trial %d seeds %v: %d is outside subtree(%d) but unreachable avoiding it",
							trial, seeds, y, avoid)
					}
				}
			}
		}
	}
	if screened == 0 {
		t.Fatal("the tree screen never certified a pair")
	}
}

func countTrue(bs []bool) int {
	c := 0
	for _, b := range bs {
		if b {
			c++
		}
	}
	return c
}
