package ir

import (
	"math/bits"

	"repro/internal/graph"
)

// AccessGraph is the per-processor program-order graph over shared accesses:
// node i is Fn.Accesses[i], and Succ[a] lists the accesses that can be the
// next shared access executed after a on the same processor. Its transitive
// closure is the program order P restricted to accesses, which is what the
// cycle-detection analyses traverse.
//
// The closure is stored once, in the orientation its readers read: PredRow(b)
// is the set of accesses that can precede b. It is the reachability closure
// of the reversed successor lists, computed by a DP over their SCC
// condensation and kept as one bitset row per component, shared by the
// component's members. Nothing is built lazily: the graph is immutable
// once BuildAccessGraph returns and may be read from any number of
// goroutines.
type AccessGraph struct {
	Fn   *Fn
	Succ [][]int
	pred *graph.ClassRows // pred.Row(b) bit a: path of length >= 1 from a to b
}

// BuildAccessGraph computes the access-successor graph of fn and its
// predecessor closure.
func BuildAccessGraph(fn *Fn) *AccessGraph {
	n := len(fn.Accesses)
	succ := make([][]int, n)

	// first[k] is the first access of block k, or -1 when it has none.
	first := make([]int, len(fn.Blocks))
	for k, blk := range fn.Blocks {
		first[k] = -1
		for _, s := range blk.Stmts {
			if a := AccessOf(s); a != nil {
				first[k] = a.ID
				break
			}
		}
	}
	// walk appends to out the first access of every block reachable from
	// blk through access-free blocks: depth first in successor order, each
	// block once per walk (seen holds the walk's stamp), so an access is
	// listed where it first appears on the simple paths out of blk.
	seen := make([]int32, len(fn.Blocks))
	var stamp int32
	var walk func(blk *Block, out []int) []int
	walk = func(blk *Block, out []int) []int {
		for _, s := range blk.Succs() {
			if seen[s.ID] == stamp {
				continue
			}
			seen[s.ID] = stamp
			if a := first[s.ID]; a >= 0 {
				out = append(out, a)
			} else {
				out = walk(s, out)
			}
		}
		return out
	}

	for _, blk := range fn.Blocks {
		prev := -1
		for _, s := range blk.Stmts {
			if a := AccessOf(s); a != nil {
				if prev >= 0 {
					succ[prev] = append(succ[prev], a.ID)
				}
				prev = a.ID
			}
		}
		if prev < 0 {
			continue
		}
		// One walk per successor block: an access entered from two of
		// them is listed twice.
		for _, s := range blk.Succs() {
			stamp++
			seen[s.ID] = stamp
			if a := first[s.ID]; a >= 0 {
				succ[prev] = append(succ[prev], a)
			} else {
				succ[prev] = walk(s, succ[prev])
			}
		}
	}

	rev := make([][]int32, n)
	for a, bs := range succ {
		for _, b := range bs {
			rev[b] = append(rev[b], int32(a))
		}
	}
	iter := func(u int, visit func(v int32)) {
		for _, v := range rev[u] {
			visit(v)
		}
	}
	return &AccessGraph{Fn: fn, Succ: succ, pred: graph.Condense(n, iter).ReachRows(n, iter)}
}

// PredRow returns the program-order predecessor row of b as a shared
// bitset (bit a set iff a path of length >= 1 leads from a to b). Members
// of one program-order cycle share the row; callers must not modify it.
func (ag *AccessGraph) PredRow(b int) []uint64 { return ag.pred.Row(b) }

// OrderedPairs returns all pairs (a, b) with a ≺ b in program order
// (b reachable from a by a path of length >= 1), grouped by b. In loops
// both (a, b) and (b, a) may appear, and (a, a) appears when a can
// re-execute.
func (ag *AccessGraph) OrderedPairs() [][2]int {
	var out [][2]int
	for b := range ag.Succ {
		for wi, w := range ag.PredRow(b) {
			for ; w != 0; w &= w - 1 {
				out = append(out, [2]int{wi<<6 + bits.TrailingZeros64(w), b})
			}
		}
	}
	return out
}
