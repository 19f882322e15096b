package graph

import (
	"math/rand"
	"testing"
)

// bruteAvoid computes reachability from seeds with the vertex `avoid`
// removed entirely (seeds equal to avoid dropped).
func bruteAvoid(g digraph, seeds []int32, avoid int) []bool {
	seen := make([]bool, len(g))
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
		for _, v := range g[u] {
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
		g := make(digraph, n)
		edges := rng.Intn(3 * n)
		for e := 0; e < edges; e++ {
			g.addEdge(rng.Intn(n), rng.Intn(n))
		}
		fd := NewFlowDom(BuildCSR(n,
			func(u int) int { return len(g[u]) },
			func(u int, out []int32) {
				for i, v := range g[u] {
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

// stackTreeTimes is the first-visit tree's numbering by an explicit walk:
// child lists built from the discovery order, then a depth-first walk with
// exit markers on a stack, one tick per entry and per exit. It is the
// reference for buildTree, which derives the same numbers from subtree
// sizes.
func stackTreeTimes(f *FlowDom) (tin, tout []int32) {
	root := int32(f.n)
	tin, tout = make([]int32, f.n+1), make([]int32, f.n+1)
	head, next := make([]int32, f.n+1), make([]int32, f.n+1)
	head[root] = -1
	for _, v := range f.order {
		head[v] = -1
	}
	for i := len(f.order) - 1; i >= 0; i-- {
		v := f.order[i]
		p := f.parent[v]
		next[v] = head[p]
		head[p] = v
	}
	t := int32(0)
	stack := []int32{root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v < 0 {
			tout[-(v + 1)] = t
			t++
			continue
		}
		tin[v] = t
		t++
		stack = append(stack, -(v + 1))
		for c := head[v]; c != -1; c = next[c] {
			stack = append(stack, c)
		}
	}
	return tin, tout
}

// TestTreeTimesMatchStackWalk holds TreeTimes to the explicit walk's
// numbering, tick for tick, at every visited node and the root, over random
// graphs and seed sets on one reused FlowDom.
func TestTreeTimesMatchStackWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		g := make(digraph, n)
		for e := rng.Intn(3 * n); e > 0; e-- {
			g.addEdge(rng.Intn(n), rng.Intn(n))
		}
		fd := NewFlowDom(BuildCSR(n,
			func(u int) int { return len(g[u]) },
			func(u int, out []int32) {
				for i, v := range g[u] {
					out[i] = int32(v)
				}
			}))
		for srcTrial := 0; srcTrial < 4; srcTrial++ {
			seeds := []int32{int32(rng.Intn(n))}
			for v := 0; v < n; v++ {
				if rng.Intn(4) == 0 {
					seeds = append(seeds, int32(v))
				}
			}
			fd.Reach(seeds)
			tin, tout := fd.TreeTimes()
			wantIn, wantOut := stackTreeTimes(fd)
			for _, v := range append([]int32{int32(n)}, fd.Order()...) {
				if tin[v] != wantIn[v] || tout[v] != wantOut[v] {
					t.Fatalf("trial %d seeds %v: node %d has [%d, %d], the walk gives [%d, %d]",
						trial, seeds, v, tin[v], tout[v], wantIn[v], wantOut[v])
				}
			}
		}
	}
}
