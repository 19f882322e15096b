package syncanal

import (
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
// and y. Regions start at the program entry and immediately after each
// barrier access, and extend until the next barrier. Accesses that are
// never co-phase cannot execute concurrently under aligned barriers.
func buildCoPhase(fn *ir.Fn, ag *ir.AccessGraph) *graph.ClassRows {
	n := len(fn.Accesses)
	isBarrier := func(id int) bool { return fn.Accesses[id].Kind == ir.AccBarrier }

	// An access's co-phase row is the union of the masks of the regions
	// containing it, so the row depends only on the access's
	// region-membership set. Collect per-access membership lists, intern
	// them into classes, and build one shared row per class: O(#regions *
	// n/64) words where the per-access matrix was O(n^2/64).
	w := graph.WordsFor(n)
	var regionMasks [][]uint64
	memberOf := make([][]int32, n) // access -> region ids, ascending
	mark := func(region []int) {
		if len(region) == 0 {
			return
		}
		mask := make([]uint64, w)
		id := int32(len(regionMasks))
		for _, x := range region {
			graph.BitSet(mask, x)
			memberOf[x] = append(memberOf[x], id)
		}
		regionMasks = append(regionMasks, mask)
	}
	// BFS limited to non-barrier nodes.
	sweep := func(starts []int) []int {
		seen := make([]bool, n)
		var region []int
		var stack []int
		for _, s := range starts {
			if isBarrier(s) || seen[s] {
				continue
			}
			seen[s] = true
			stack = append(stack, s)
			region = append(region, s)
		}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range ag.Succ[u] {
				if seen[v] || isBarrier(v) {
					continue
				}
				seen[v] = true
				stack = append(stack, v)
				region = append(region, v)
			}
		}
		return region
	}

	// Region starting at program entry: accesses reachable before the
	// first barrier. Entry accesses are those with no position... the
	// access graph has no explicit entry node, so start from the accesses
	// of the entry block chain: every access not strictly preceded by a
	// barrier is conservatively seeded below via per-barrier sweeps plus
	// an entry sweep from the function's first reachable accesses.
	entryStarts := firstAccesses(fn)
	mark(sweep(entryStarts))
	for _, a := range fn.Accesses {
		if a.Kind == ir.AccBarrier {
			mark(sweep(ag.Succ[a.ID]))
		}
	}

	// Intern membership lists: accesses in the same regions share a class
	// (and hence one physical row). Barrier accesses and anything outside
	// every region land in the empty class with an all-zero row.
	classOf := make([]int32, n)
	idx := make(map[string]int32)
	var rows [][]uint64
	var keyBuf []byte
	for x := 0; x < n; x++ {
		keyBuf = keyBuf[:0]
		for _, r := range memberOf[x] {
			keyBuf = append(keyBuf, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
		}
		c, ok := idx[string(keyBuf)]
		if !ok {
			c = int32(len(rows))
			idx[string(keyBuf)] = c
			row := make([]uint64, w)
			for _, r := range memberOf[x] {
				for i, wd := range regionMasks[r] {
					row[i] |= wd
				}
			}
			rows = append(rows, row)
		}
		classOf[x] = c
	}
	return graph.NewClassRows(classOf, rows, n)
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
