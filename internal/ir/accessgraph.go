package ir

import (
	"math/bits"

	"repro/internal/graph"
)

// AccessGraph is the per-processor program-order graph over shared accesses:
// node i is Fn.Accesses[i], and an edge a -> b means b can be the next
// shared access executed after a on the same processor. Its transitive
// closure is the program order P restricted to accesses, which is what the
// cycle-detection analyses traverse.
//
// The closure is stored as bitset rows (n^2/64 words) and computed by a
// DP over the SCC condensation — one row union per condensation edge plus
// one copy per node — so building it stays far below the per-source-BFS
// O(n*E) that dominated at tens of thousands of accesses.
type AccessGraph struct {
	Fn    *Fn
	G     *graph.Digraph
	reach *graph.BitMatrix // reach.Has(a, b): path of length >= 1 from a to b
	pred  *graph.BitMatrix // transpose of reach, built lazily by PredRow
}

// BuildAccessGraph computes the access-successor graph of fn.
func BuildAccessGraph(fn *Fn) *AccessGraph {
	n := len(fn.Accesses)
	g := graph.New(n)

	// first[b] = accesses reachable from the start of block b without
	// crossing another access (i.e. the first accesses "seen" on entry).
	// Cycle truncation must propagate: a result computed while some
	// ancestor was on the DFS stack may under-approximate and must not be
	// memoized (a poisoned cache would silently drop program-order edges).
	memo := make(map[int][]int)
	var first func(b *Block, visiting map[int]bool) (res []int, complete bool)
	first = func(b *Block, visiting map[int]bool) ([]int, bool) {
		if got, ok := memo[b.ID]; ok {
			return got, true
		}
		if visiting[b.ID] {
			return nil, false
		}
		visiting[b.ID] = true
		defer delete(visiting, b.ID)
		for _, s := range b.Stmts {
			if a := AccessOf(s); a != nil {
				res := []int{a.ID}
				memo[b.ID] = res
				return res, true
			}
		}
		var res []int
		seen := map[int]bool{}
		complete := true
		for _, s := range b.Succs() {
			sub, ok := first(s, visiting)
			if !ok {
				complete = false
			}
			for _, id := range sub {
				if !seen[id] {
					seen[id] = true
					res = append(res, id)
				}
			}
		}
		if complete {
			memo[b.ID] = res
		}
		return res, complete
	}

	// firstOf computes the access-free-entry set of a block, re-running
	// the DFS when a previous truncated traversal prevented memoization.
	firstOf := func(b *Block) []int {
		res, _ := first(b, map[int]bool{})
		return res
	}

	for _, b := range fn.Blocks {
		var prev *Access
		for _, s := range b.Stmts {
			a := AccessOf(s)
			if a == nil {
				continue
			}
			if prev != nil {
				g.AddEdge(prev.ID, a.ID)
			}
			prev = a
		}
		if prev != nil {
			for _, s := range b.Succs() {
				for _, id := range firstOf(s) {
					g.AddEdge(prev.ID, id)
				}
			}
		}
	}
	ag := &AccessGraph{Fn: fn, G: g}
	iter := func(u int, visit func(v int32)) {
		for _, v := range g.Adj[u] {
			visit(int32(v))
		}
	}
	ag.reach = graph.Condense(n, iter).ReachRows(n, iter)
	return ag
}

// PredRow returns the program-order predecessor row of b as a shared
// bitset (bit a set iff Reaches(a, b)). The transposed matrix is built on
// first use; like the graph itself it must not be modified by callers.
func (ag *AccessGraph) PredRow(b int) []uint64 {
	if ag.pred == nil {
		ag.pred = ag.reach.Transpose()
	}
	return ag.pred.Row(b)
}

// OrderedPairs returns all pairs (a, b) with a ≺ b in program order
// (b reachable from a by a path of length >= 1). In loops both (a, b) and
// (b, a) may appear, and (a, a) appears when a can re-execute.
func (ag *AccessGraph) OrderedPairs() [][2]int {
	var out [][2]int
	n := ag.reach.N
	for a := 0; a < n; a++ {
		row := ag.reach.Row(a)
		for wi, w := range row {
			for ; w != 0; w &= w - 1 {
				b := wi<<6 + bits.TrailingZeros64(w)
				out = append(out, [2]int{a, b})
			}
		}
	}
	return out
}
