package delay

import (
	"repro/internal/conflict"
	"repro/internal/graph"
	"repro/internal/ir"
)

// ComputeReference is the oracle of the package: the definition of a
// back-path run once per program-order pair, adjacency materialized through
// closures, nothing shared between pairs. The differential tests call it by
// name and hold Compute to its answer, and the exact search
// (Constraints.Exact) exists only here. It reads the plain fields of
// Constraints — ConflictDir (or, without one, DirRows), Removed,
// Endpoints — and none of the engine's accelerators.
func ComputeReference(ag *ir.AccessGraph, cs *conflict.Set, con Constraints) *Set {
	fn := ag.Fn
	out := NewSet(fn)
	n := len(fn.Accesses)
	if n == 0 {
		return out
	}
	cdir := con.ConflictDir
	switch {
	case cdir != nil:
	case con.DirRows != nil:
		cdir = func(x, y int) bool { return graph.BitGet(con.DirRows.Row(x), y) }
	default:
		cdir = func(x, y int) bool { return true }
	}
	listed := make([]bool, n)
	for _, x := range con.Endpoints.IDs {
		listed[x] = true
	}
	// considered is the endpoint filter, asked of each pair on its own.
	considered := func(a, b int) bool {
		if con.Endpoints.Keep {
			return listed[a] || listed[b]
		}
		return !listed[a] && !listed[b]
	}
	conflictOut := func(x int) []int {
		var r []int
		for _, y := range cs.Partners(x) {
			if cdir(x, y) {
				r = append(r, y)
			}
		}
		return r
	}

	// mixed adjacency: program-order successors plus directed conflicts.
	mixedAdj := func(x int) []int {
		r := append([]int(nil), ag.G.Adj[x]...)
		r = append(r, conflictOut(x)...)
		return r
	}

	exact := con.Exact && n <= ExactLimit

	for _, pr := range ag.OrderedPairs() {
		a, b := pr[0], pr[1]
		if !considered(a, b) {
			continue
		}
		// Note (a, a) pairs are real: inside a loop they stand for the
		// cross-iteration pair (a_k, a_k+1), and a single self-conflict
		// edge is a valid back-path for them.
		removed := func(z int) bool {
			if z == a || z == b {
				return false
			}
			return con.Removed != nil && con.Removed(a, b, z)
		}
		var found bool
		if exact {
			found = exactBackPath(ag, cs, cdir, a, b, removed)
		} else {
			found = polyBackPath(ag, cs, cdir, conflictOut, mixedAdj, a, b, removed)
		}
		if found {
			out.Add(a, b)
		}
	}
	return out
}

// polyBackPath checks for a (not necessarily simple) back-path for (a, b).
func polyBackPath(ag *ir.AccessGraph, cs *conflict.Set, cdir func(int, int) bool,
	conflictOut func(int) []int, mixedAdj func(int) []int, a, b int, removed func(int) bool) bool {

	// Direct single conflict edge b -> a.
	if cs.Conflicts(b, a) && cdir(b, a) {
		return true
	}
	// Seed: conflict successors of b; target: any y with a directed
	// conflict edge y -> a.
	isTarget := func(y int) bool { return cs.Conflicts(y, a) && cdir(y, a) }
	n := cs.N()
	seen := make([]bool, n)
	var stack []int
	for _, x := range conflictOut(b) {
		if removed(x) {
			continue
		}
		if isTarget(x) {
			return true
		}
		if x == a {
			continue // reached a not via a final conflict edge; a is endpoint
		}
		if !seen[x] {
			seen[x] = true
			stack = append(stack, x)
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range mixedAdj(u) {
			if seen[v] || removed(v) {
				continue
			}
			if isTarget(v) {
				return true
			}
			if v == a || v == b {
				continue
			}
			seen[v] = true
			stack = append(stack, v)
		}
	}
	return false
}

// exactBackPath enumerates simple paths (no repeated accesses) from b to a,
// first and last edges conflict edges. It prunes with a depth-first search
// and is exponential in the worst case.
func exactBackPath(ag *ir.AccessGraph, cs *conflict.Set, cdir func(int, int) bool,
	a, b int, removed func(int) bool) bool {

	if cs.Conflicts(b, a) && cdir(b, a) {
		return true
	}
	n := cs.N()
	onPath := make([]bool, n)
	onPath[b] = true
	var dfs func(u int) bool
	dfs = func(u int) bool {
		// Can we finish here with a conflict edge into a?
		if u != b && cs.Conflicts(u, a) && cdir(u, a) {
			return true
		}
		var next []int
		if u == b {
			for _, y := range cs.Partners(b) {
				if cdir(b, y) {
					next = append(next, y)
				}
			}
		} else {
			next = append(next, ag.G.Adj[u]...)
			for _, y := range cs.Partners(u) {
				if cdir(u, y) {
					next = append(next, y)
				}
			}
		}
		for _, v := range next {
			if v == a || v == b || onPath[v] || removed(v) {
				continue
			}
			onPath[v] = true
			if dfs(v) {
				onPath[v] = false
				return true
			}
			onPath[v] = false
		}
		return false
	}
	return dfs(b)
}
