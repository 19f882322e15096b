package syncanal

import (
	"math/bits"

	"repro/internal/graph"
	"repro/internal/ir"
)

// Section 5.2: barrier phase partitioning. Two data accesses that never
// share a barrier-free region cannot execute concurrently when barriers
// line up, so their conflict edges cannot appear in a violation window
// between two data accesses. The write->barrier and barrier->read delays
// that actually enforce the phase separation are sync-involving pairs and
// are computed without this filter (and kept wholesale through D1).

// buildCoPhase computes the symmetric co-phase relation: CoPhase.Row(x)
// holds y when some barrier-free region of the access graph contains both x
// and y. A region starts at the program entry — the accesses reachable from
// the entry block without crossing another access (firstAccesses) — or
// right after a barrier access, and extends up to the next barrier.
// Accesses that are never co-phase cannot execute concurrently under
// aligned barriers.
func buildCoPhase(fn *ir.Fn, ag *ir.AccessGraph) *graph.ClassRows {
	n := len(fn.Accesses)
	isBarrier := func(id int) bool { return fn.Accesses[id].Kind == ir.AccBarrier }
	starts := [][]int{firstAccesses(fn)}
	for _, a := range fn.Accesses {
		if isBarrier(a.ID) {
			starts = append(starts, ag.Succ[a.ID])
		}
	}

	// Each region is a BFS limited to non-barrier accesses, its mask doubling
	// as the visited set; member holds each access's region-membership set,
	// one bit per region.
	w, rw := graph.WordsFor(n), graph.WordsFor(len(starts))
	member := make([]uint64, n*rw)
	regionMasks := make([][]uint64, len(starts))
	var stack []int
	for r, ss := range starts {
		mask := make([]uint64, w)
		visit := func(x int) {
			if !isBarrier(x) && !graph.BitGet(mask, x) {
				graph.BitSet(mask, x)
				graph.BitSet(member[x*rw:(x+1)*rw], r)
				stack = append(stack, x)
			}
		}
		for _, x := range ss {
			visit(x)
		}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range ag.Succ[u] {
				visit(v)
			}
		}
		regionMasks[r] = mask
	}

	// An access's co-phase row is the union of the masks of its regions, so
	// it depends only on the membership set: accesses with one set share a
	// class and one physical row, O(#regions * n/64) words where the
	// per-access matrix was O(n^2/64). Barrier accesses, in no region, share
	// the empty set's all-zero row.
	classOf := make([]int32, n)
	var sets graph.RowInterner
	var rows [][]uint64
	for x := range classOf {
		set := member[x*rw : (x+1)*rw]
		c, fresh := sets.Intern(set)
		if fresh {
			row := make([]uint64, w)
			for wi, wd := range set {
				for ; wd != 0; wd &= wd - 1 {
					orRow(row, regionMasks[wi<<6+bits.TrailingZeros64(wd)])
				}
			}
			rows = append(rows, row)
		}
		classOf[x] = c
	}
	return graph.NewClassRows(classOf, rows)
}

// firstAccesses returns the accesses reachable from the function entry
// without crossing any other access.
func firstAccesses(fn *ir.Fn) []int {
	var out []int
	seen := make(map[int]bool)
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		if seen[b.ID] {
			return
		}
		seen[b.ID] = true
		for _, s := range b.Stmts {
			if a := ir.AccessOf(s); a != nil {
				out = append(out, a.ID)
				return
			}
		}
		for _, s := range b.Succs() {
			walk(s)
		}
	}
	walk(fn.Blocks[0])
	return out
}
