package delay

import (
	"math/bits"

	"repro/internal/conflict"
	"repro/internal/graph"
	"repro/internal/ir"
)

// ComputeReference is the oracle of the package: the definition of a
// back-path run once per program-order pair, the successor lists and
// conflict rows read in place, nothing shared between pairs. The differential tests call it by
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
			found = polyBackPath(ag, cs, cdir, a, b, removed)
		}
		if found {
			out.Add(a, b)
		}
	}
	return out
}

// anyConflictOut reports whether f holds for some y with a directed
// conflict edge x -> y, stopping at the first; it reads x's conflict row
// in place.
func anyConflictOut(cs *conflict.Set, cdir func(int, int) bool, x int, f func(y int) bool) bool {
	for wi, wd := range cs.Row(x) {
		for ; wd != 0; wd &= wd - 1 {
			if y := wi<<6 + bits.TrailingZeros64(wd); cdir(x, y) && f(y) {
				return true
			}
		}
	}
	return false
}

// polyBackPath checks for a (not necessarily simple) back-path for (a, b):
// a search of the mixed graph — program-order successors plus directed
// conflicts — from b's conflict successors to any y with a directed
// conflict edge y -> a.
func polyBackPath(ag *ir.AccessGraph, cs *conflict.Set, cdir func(int, int) bool,
	a, b int, removed func(int) bool) bool {

	// Direct single conflict edge b -> a.
	if cs.Conflicts(b, a) && cdir(b, a) {
		return true
	}
	isTarget := func(y int) bool { return cs.Conflicts(y, a) && cdir(y, a) }
	seen := make([]bool, cs.N())
	var stack []int
	seed := func(x int) bool {
		if removed(x) {
			return false
		}
		if isTarget(x) {
			return true
		}
		// Reaching a not via a final conflict edge ends nothing: a is an
		// endpoint.
		if x != a && !seen[x] {
			seen[x] = true
			stack = append(stack, x)
		}
		return false
	}
	if anyConflictOut(cs, cdir, b, seed) {
		return true
	}
	step := func(v int) bool {
		if seen[v] || removed(v) {
			return false
		}
		if isTarget(v) {
			return true
		}
		if v != a && v != b {
			seen[v] = true
			stack = append(stack, v)
		}
		return false
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range ag.Succ[u] {
			if step(v) {
				return true
			}
		}
		if anyConflictOut(cs, cdir, u, step) {
			return true
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
	onPath := make([]bool, cs.N())
	onPath[b] = true
	var dfs func(u int) bool
	// extend follows one edge into v, unless v is an endpoint, already on
	// the path, or removed.
	extend := func(v int) bool {
		if v == a || v == b || onPath[v] || removed(v) {
			return false
		}
		onPath[v] = true
		found := dfs(v)
		onPath[v] = false
		return found
	}
	dfs = func(u int) bool {
		// Can we finish here with a conflict edge into a?
		if u != b && cs.Conflicts(u, a) && cdir(u, a) {
			return true
		}
		// The path leaves b by a conflict edge; later accesses also follow
		// program order.
		if u != b {
			for _, v := range ag.Succ[u] {
				if extend(v) {
					return true
				}
			}
		}
		return anyConflictOut(cs, cdir, u, extend)
	}
	return dfs(b)
}
