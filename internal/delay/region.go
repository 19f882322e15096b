package delay

import (
	"math/bits"
	"slices"

	"repro/internal/conflict"
	"repro/internal/graph"
	"repro/internal/ir"
)

// This file implements the production back-path engine. It rests on one
// confinement fact:
//
//	A delay pair (a, b) needs a program-order path a -> b and a back-path
//	walk b -> a, both over mixed edges (program order plus usable conflict
//	edges). Concatenated they form a closed walk, so a, b, and every node
//	of every witness walk lie in one strongly connected component of the
//	directed mixed graph.
//
// Hence pairs spanning two SCCs are false with zero search, and searches
// for same-SCC pairs restricted to the induced subgraph are exact — for
// every constraint, because constraints only shrink the edge set the walks
// may use.
//
// Two solvers split the work, selected by the query's shape:
//
//   - hubCompute takes the symmetric query without removal, under any
//     endpoint filter (step 2's D1 and the rest of the Shasha–Snir
//     baseline; computeRegion selects it when no direction or removal is
//     set). There barrier conflict edges glue the whole program into one
//     giant SCC and regionization is useless. Instead the Theta(n^2)
//     conflict edges are compressed through per-group hub nodes: accesses
//     with the same (kind, symbol, index shape) conflict with exactly the
//     same opponents, so one collector node per group receives its members
//     and one distributor node re-emits them, turning each group-pair
//     clique into two hub edges. One uncut base BFS per conflict group runs
//     on ~2n + g^2 edges instead of n^2; the witness pools drawn from it
//     decide each (target, source group) cell, and each candidate a cell
//     leaves open gets one exact avoid-search. The endpoint filter narrows
//     each target's candidates, and a conflict group none of whose members
//     has a candidate skips its base sweep.
//
//   - classSolve takes every other query: directed conflict edges or a
//     Removed predicate, under any endpoint filter. Under orientation the
//     mixed graph decomposes into many small SCCs — essentially the
//     barrier phases — which sccCompute hands it one after another. On
//     bitset rows it decides the removal question once per (source class,
//     target class) cell, from searches shared by every cell of one seed
//     row and cover; a cell that keeps or drops is applied to whole target
//     rows, and each pair of a cell left open pays one exact restricted
//     search.
//
// DESIGN.md §19 records how much traffic each solver and each fallback
// inside them carries, and how to re-measure it.
type hubScratch struct {
	seeds []int32
	psc   *pairScratch // exact avoid-search state, built on first use
	ta    []uint64     // T(a) widened to the hub graph's node count
	cand  []uint64

	// The uncut base sweep shared by every source of one conflict group,
	// plus per-group witness pools drawn from it.
	base    *graph.FlowDom
	pools   [][]int32
	poolBuf []int32

	// Class-condensed cell cache: the screen's verdict for (target b,
	// source a) depends on a only through the groups a conflicts with and
	// a's position in the base first-visit tree, so decide summarizes each
	// cell — b and the adjacency class of a's group — once (witness count
	// class plus entry-time extremes of the witnesses surviving the
	// subtree(b) screen) and answers members with two interval
	// comparisons. Stamps are bumped per target.
	cellEp   []int32
	cellSt   []uint8
	cellMin  []int32
	cellMax  []int32
	cellTick int32

	// Per-sweep witness spans: a class's witnesses and their entry times
	// depend on the base sweep alone, so the first target of a sweep that
	// asks about class k sorts them into wit[spanAt[k]:spanEnd[k]], and
	// every later target of the sweep reads its cell summary off them by
	// two binary searches. spanEp stamps a span with the sweep that built
	// it; wit is emptied per sweep and keeps its capacity.
	spanEp, spanAt, spanEnd []int32
	wit                     []int32
	sweep                   int32

	work hubWork // this worker's share of the counts
}

// pairScratch is the reusable state of one worker's per-pair searches.
type pairScratch struct {
	mark  []int32
	epoch int32
	stack []int32
}

// computeRegion is the engine entry point: the symmetric query without
// removal goes to the hub solver, every other shape to the class solver.
func computeRegion(ag *ir.AccessGraph, cs *conflict.Set, con Constraints) *Set {
	fn := ag.Fn
	n := len(fn.Accesses)
	out := NewSet(fn)
	if n == 0 {
		return out
	}
	ends := con.Endpoints.mask(graph.WordsFor(n))
	if con.ConflictDir == nil && con.DirRows == nil && con.Removed == nil {
		hubCompute(ag, cs, ends, out)
	} else {
		sccCompute(ag, cs, con, ends, out)
	}
	return out
}

// candidateRow fills cand with the considered sources a for target b: the
// program-order predecessors the endpoint filter lets through with b. A
// false return means no pair with this target is considered.
func candidateRow(ag *ir.AccessGraph, b int, ends endpointMask, cand []uint64) bool {
	copy(cand, ag.PredRow(b))
	switch {
	case ends.bits == nil:
	case graph.BitGet(ends.bits, b):
		return ends.keep // a listed target: its whole row, or none of it
	case ends.keep:
		for i := range cand {
			cand[i] &= ends.bits[i]
		}
	default:
		for i := range cand {
			cand[i] &^= ends.bits[i]
		}
	}
	return true
}

// hubWork counts what one hubCompute did, in units that repeat exactly on
// any host and at any worker count: the candidate pairs left after the
// single-conflict-edge step, the shared uncut base sweeps (one per conflict
// group with a considered pair), and the exact avoid-searches run for the
// candidates the cell screen left open, with how many found a back-path.
type hubWork struct {
	Candidates, BaseSweeps, AvoidSearches, AvoidHits int
}

func (w *hubWork) add(o hubWork) {
	w.Candidates += o.Candidates
	w.BaseSweeps += o.BaseSweeps
	w.AvoidSearches += o.AvoidSearches
	w.AvoidHits += o.AvoidHits
}

// hubWorkHook, when a test sets it, receives each hubCompute's endpoint
// filter and its counts summed over its workers. It is nil outside tests.
var hubWorkHook func(endpointMask, hubWork)

// The hub solver's cell summaries (see decide in hubCompute).
const (
	cellFalse uint8 = iota // no witness: every member of the cell is FALSE
	cellNone               // every witness inside subtree(b): the cell is open
	cellSome               // [mn, mx] spans the witnesses outside subtree(b)
)

// witnessSpan summarizes one (target b, adjacency class) cell from w, the
// sorted base-tree entry times of the class's witnesses, against b's
// subtree interval [lo, hi] (ignored when b is not base-visited, inVis
// false): cellFalse when w is empty, cellNone when every witness lies
// inside the interval, else cellSome with the smallest and largest entry
// time outside it.
func witnessSpan(w []int32, inVis bool, lo, hi int32) (st uint8, mn, mx int32) {
	if len(w) == 0 {
		return cellFalse, 0, 0
	}
	last := len(w) - 1
	if !inVis {
		return cellSome, w[0], w[last]
	}
	i, _ := slices.BinarySearch(w, lo)   // first entry >= lo
	j, _ := slices.BinarySearch(w, hi+1) // first entry > hi
	switch {
	case i == 0 && j == len(w):
		return cellNone, 0, 0
	case i > 0:
		mn = w[0]
	default:
		mn = w[j]
	}
	if j < len(w) {
		mx = w[last]
	} else {
		mx = w[i-1]
	}
	return cellSome, mn, mx
}

// hubCompute answers every program-order pair the endpoint filter
// considers under symmetric unrestricted conflicts — no orientation, no
// removal (computeRegion sends anything else to sccCompute) — on the
// hub-compressed mixed graph. Node layout: accesses [0, n), collector
// C_g at n+g, distributor D_g at n+G+g; the real conflict edge x -> y is
// realized as x -> C_{g(x)} -> D_{g(y)} -> y, so reachability and
// reachability-avoiding-one-access coincide with the uncompressed graph.
// The filter only narrows each target's candidate sources: the walks
// themselves may pass through any access.
func hubCompute(ag *ir.AccessGraph, cs *conflict.Set, ends endpointMask, out *Set) {
	n := cs.N()
	G := cs.NumGroups()
	w := graph.WordsFor(n)
	N := n + 2*G
	adj := ag.Succ

	const poolK = 4 // witnesses a base sweep keeps per group

	ga := make([][]int32, G)
	mem := make([][]int32, G)
	for g := 0; g < G; g++ {
		ga[g] = cs.GroupAdj(g)
		mask := cs.GroupMembers(g)
		for wi, word := range mask {
			for ; word != 0; word &= word - 1 {
				mem[g] = append(mem[g], int32(wi<<6+bits.TrailingZeros64(word)))
			}
		}
	}
	// Groups with equal adjacency lists have equal witnesses in every
	// sweep, so the cell screen works per adjacency class: adjOf[g] is g's
	// class, rep[k] a group of class k. (At the 2k tier 111 groups make 25
	// classes.) spanWords bounds what one sweep's spans hold.
	idx := make([]int32, 2*n+2*G)
	groupOf, cellOf := idx[:n:n], idx[n:2*n:2*n] // access -> group, its class
	adjOf, order := idx[2*n:2*n+G:2*n+G], idx[2*n+G:]
	for g := range order {
		order[g] = int32(g)
	}
	slices.SortFunc(order, func(x, y int32) int { return slices.Compare(ga[x], ga[y]) })
	K, spanWords := 0, 0
	for _, g := range order {
		if K == 0 || !slices.Equal(ga[g], ga[order[K-1]]) {
			order[K] = g // safe: the class count never passes the position
			K++
			spanWords += poolK * len(ga[g])
		}
		adjOf[g] = int32(K - 1)
	}
	rep := order[:K]
	for a := 0; a < n; a++ {
		groupOf[a] = cs.GroupOf(a)
		cellOf[a] = adjOf[groupOf[a]]
	}

	// Self-conflict bitset: bit a set iff the edge a -> a is usable.
	sc := make([]uint64, w)
	for a := 0; a < n; a++ {
		if cs.Conflicts(a, a) {
			graph.BitSet(sc, a)
		}
	}

	hub := graph.BuildCSR(N,
		func(u int) int {
			switch {
			case u < n:
				d := len(adj[u])
				if len(ga[groupOf[u]]) > 0 {
					d++
				}
				return d
			case u < n+G:
				return len(ga[u-n])
			default:
				return len(mem[u-n-G])
			}
		},
		func(u int, dst []int32) {
			switch {
			case u < n:
				i := 0
				for _, v := range adj[u] {
					dst[i] = int32(v)
					i++
				}
				if len(ga[groupOf[u]]) > 0 {
					dst[i] = int32(n) + groupOf[u]
				}
			case u < n+G:
				for i, g2 := range ga[u-n] {
					dst[i] = int32(n+G) + g2
				}
			default:
				copy(dst, mem[u-n-G])
			}
		})

	// avoid answers one pair (a, b) exactly: is some y in T(a) — the
	// accesses with a conflict edge into a — reachable from b's conflict
	// successors (b itself too when it self-conflicts) by a walk that
	// avoids a and never re-enters b? It runs over the hub graph (hub
	// nodes are never witnesses: their bits in the widened target row stay
	// zero).
	avoid := func(s *hubScratch, a, b int) bool {
		if s.psc == nil {
			s.psc = &pairScratch{mark: make([]int32, N)}
			s.ta = make([]uint64, graph.WordsFor(N))
		}
		copy(s.ta, cs.Row(a))
		s.seeds = append(s.seeds[:0], int32(n)+groupOf[b])
		if graph.BitGet(sc, b) {
			s.seeds = append(s.seeds, int32(b))
		}
		s.work.AvoidSearches++
		if !localAvoidSearch(s.psc, hub, s.ta, s.seeds, a, b) {
			return false
		}
		s.work.AvoidHits++
		return true
	}

	// decide answers b's candidates against the group's shared uncut base
	// sweep. A witness y that is base-visited, outside the base first-visit
	// subtree of b, and outside the subtree of a has a base tree path
	// avoiding both endpoints — and deleting b's in-edges cannot touch a
	// path that never enters subtree(b), so the pair is TRUE. A candidate
	// whose conflict groups hold no base-visited member at all is exactly
	// FALSE, because the walks that avoid a and b visit a subset of the
	// base sweep. Every other candidate gets one exact avoid-search.
	//
	// The screen is class-condensed: it depends on the source a only
	// through the groups a conflicts with (which fix the witness pools) and
	// a's subtree interval in the base tree. So per cell (b and the
	// adjacency class of a's group) it computes one summary: cellFalse (no
	// pool member base-visited: every member is exactly FALSE), cellNone
	// (witnesses exist but all inside subtree(b): open), or cellSome with
	// the entry-time extremes [mn, mx] of the witnesses surviving the
	// subtree(b) screen. A member a of a cellSome cell is base-visited (a
	// surviving witness reaches it through C and D hubs) and TRUE unless
	// its interval covers [mn, mx], i.e. every surviving witness sits
	// inside subtree(a) — the witness rejection "y == a" folds in because
	// a's interval always covers its own entry time. Only the covering
	// members — an ancestor chain of the witness span — and the cellNone
	// cells are left open.
	//
	// The witnesses of a cell, and their entry times, depend on the base
	// sweep and the adjacency class alone, not on b. So the first target of
	// a sweep that asks about a class sorts their entry times into a span
	// (spanOf), and each target's summary is two binary searches into it
	// (witnessSpan) instead of a scan of every conflicting group's pool.
	spanOf := func(s *hubScratch, k int32, btin []int32) []int32 {
		if s.spanEp[k] != s.sweep {
			s.spanEp[k] = s.sweep
			at := len(s.wit)
			for _, g2 := range ga[rep[k]] {
				for _, y := range s.pools[g2] {
					s.wit = append(s.wit, btin[y])
				}
			}
			slices.Sort(s.wit[at:])
			s.spanAt[k], s.spanEnd[k] = int32(at), int32(len(s.wit))
		}
		return s.wit[s.spanAt[k]:s.spanEnd[k]]
	}
	decide := func(s *hubScratch, b int) {
		cand := s.cand
		if !candidateRow(ag, b, ends, cand) {
			return
		}
		row := out.byB.Row(b)
		crb := cs.Row(b)
		left := 0
		for i := range cand {
			d := crb[i] & cand[i] // single conflict edge b -> a
			row[i] |= d
			cand[i] &^= d
			left += bits.OnesCount64(cand[i])
		}
		s.work.Candidates += left
		if left == 0 {
			return
		}
		if s.cellEp == nil {
			buf := make([]int32, 6*K+spanWords)
			s.cellEp, s.cellMin, s.cellMax = buf[:K:K], buf[K:2*K:2*K], buf[2*K:3*K:3*K]
			s.spanEp, s.spanAt, s.spanEnd = buf[3*K:4*K:4*K], buf[4*K:5*K:5*K], buf[5*K:6*K:6*K]
			s.wit = buf[6*K : 6*K] // spanWords of room: never outgrown
			s.cellSt = make([]uint8, K)
		}
		base := s.base
		btin, btout := base.TreeTimes()
		bVis := base.Visited(b)
		s.cellTick++
		for wi, word := range cand {
			for ; word != 0; word &= word - 1 {
				a := wi<<6 + bits.TrailingZeros64(word)
				k := cellOf[a]
				if s.cellEp[k] != s.cellTick {
					s.cellEp[k] = s.cellTick
					s.cellSt[k], s.cellMin[k], s.cellMax[k] =
						witnessSpan(spanOf(s, k, btin), bVis, btin[b], btout[b])
				}
				switch s.cellSt[k] {
				case cellFalse:
					continue // no member of T(a) is even base-reachable
				case cellSome:
					if !(btin[a] <= s.cellMin[k] && s.cellMax[k] <= btout[a]) {
						graph.BitSet(row, a)
						continue
					}
					// a's subtree covers every surviving witness; a's own
					// self-conflict edge still closes the path when a base
					// path outside subtree(b) reaches a.
					if graph.BitGet(sc, a) && (!bVis || !(btin[b] <= btin[a] && btin[a] <= btout[b])) {
						graph.BitSet(row, a)
						continue
					}
				}
				if avoid(s, a, b) {
					graph.BitSet(row, a)
				}
			}
		}
	}

	// considered reports whether some member of group g has a considered
	// source.
	considered := func(s *hubScratch, g int) bool {
		for _, b := range mem[g] {
			if !candidateRow(ag, int(b), ends, s.cand) {
				continue
			}
			for _, word := range s.cand {
				if word != 0 {
					return true
				}
			}
		}
		return false
	}

	// Group-major sweeps: one shared base per conflict group.
	nw := workerCount(G)
	scr := make([]*hubScratch, nw)
	parallelFor(G, nw, func(wk, g int) {
		if len(ga[g]) == 0 {
			return // no usable conflict edge leaves any member
		}
		if scr[wk] == nil {
			scr[wk] = &hubScratch{
				cand:    make([]uint64, w),
				seeds:   make([]int32, 0, 2),
				base:    graph.NewFlowDom(hub),
				poolBuf: make([]int32, poolK*G),
				pools:   make([][]int32, G),
			}
		}
		s := scr[wk]
		if !considered(s, g) {
			return // the endpoint filter leaves no member a source
		}
		s.work.BaseSweeps++
		s.sweep++
		s.wit = s.wit[:0]
		s.seeds = append(s.seeds[:0], int32(n)+int32(g))
		s.base.Reach(s.seeds)
		for i := range s.pools {
			s.pools[i] = s.poolBuf[i*poolK : i*poolK : (i+1)*poolK]
		}
		for _, v := range s.base.Order() {
			if v >= int32(n) {
				continue
			}
			if p := s.pools[groupOf[v]]; len(p) < poolK {
				s.pools[groupOf[v]] = append(p, v)
			}
		}
		for _, b := range mem[g] {
			decide(s, int(b))
		}
	})
	if hubWorkHook != nil {
		var sum hubWork
		for _, s := range scr {
			if s != nil {
				sum.add(s.work)
			}
		}
		hubWorkHook(ends, sum)
	}
}

// mixedAdj is the global mixed adjacency consumed by the word-parallel
// restricted searches: directed conflict rows (physically shared per
// class when the caller condensed them — never expanded here) plus the
// sparse program-order edges, traversed separately so no per-access n-bit
// union row ever materializes.
type mixedAdj struct {
	dir graph.Rows
	adj [][]int
}

// directedRows keeps the conflict edges x -> y that dir allows, as a
// per-access matrix.
func directedRows(cs *conflict.Set, dir func(x, y int) bool) *graph.BitMatrix {
	m := graph.NewBitMatrix(cs.N())
	for x := 0; x < cs.N(); x++ {
		anyConflictOut(cs, dir, x, func(y int) bool {
			m.Set(x, y)
			return false
		})
	}
	return m
}

// sccCompute answers every query the hub solver does not take. It first
// brings the constraints to the class solver's one shape: without a
// classing every access is its own class, without a removal every pair
// gets one empty cover under id 0, and a removal without a cover gets the
// cover its predicate spells out, built per pair. Then it decomposes the
// mixed graph into its strongly connected components and has classSolve
// answer them one after another, each region's seed groups spread over the
// workers. Orientation by the precedence relation collapses cross-phase
// cycles, so the regions are essentially the barrier phases. Without any
// direction the conflict rows themselves serve, so Compute stays total over
// Constraints.
func sccCompute(ag *ir.AccessGraph, cs *conflict.Set, con Constraints, ends endpointMask, out *Set) {
	n := cs.N()
	adj := ag.Succ

	var dirOut, dirIn graph.Rows
	switch {
	case con.DirRows != nil:
		dirOut = con.DirRows
	case con.ConflictDir != nil:
		dirOut = directedRows(cs, con.ConflictDir)
	default:
		dirOut, dirIn = cs, cs // symmetric: the relation is its own transpose
	}
	if dirIn == nil {
		dirIn = graph.TransposeRows(dirOut)
	}

	cd := con.Comp
	if cd == nil {
		cd = graph.CondenseMixed(adj, dirOut)
	}

	class := con.AccessClass
	if class == nil {
		class = make([]int32, n)
		for x := range class {
			class[x] = int32(x)
		}
	}
	cover := con.RemovedCover
	switch {
	case con.Removed == nil:
		none := make([]uint64, graph.WordsFor(n))
		cover = func(int, int, []uint64) ([]uint64, int) { return none, 0 }
	case cover == nil:
		cover = func(a, b int, scratch []uint64) ([]uint64, int) {
			for i := range scratch {
				scratch[i] = 0
			}
			for z := 0; z < n; z++ {
				if con.Removed(a, b, z) {
					graph.BitSet(scratch, z)
				}
			}
			return scratch, -1
		}
	}

	e := newClassEngine(ag, out, ends, &mixedAdj{dir: dirOut, adj: adj}, dirIn, cover, class)
	for _, members := range cd.Members {
		e.classSolve(members)
	}
}

// denseRestrict answers one Removed-restricted pair (a, b) word-parallel
// on the global mixed adjacency gd, given that cov is exactly the removed
// set for the pair, as every cover is (Constraints.RemovedCover). Instead
// of calling the predicate per encountered node, removed nodes (and
// everything outside the region) are folded into the visited set up front,
// so they are never expanded and never accepted — the reference's
// removed-before-target ordering by construction. The endpoint exemptions
// are restored explicitly: a stays avoidable-but-acceptable (its bit is set
// in vis so it is never interior, and re-added to the target set when it
// carries a usable self-conflict edge), and b's removal is irrelevant
// because the cut already keeps the walk from re-entering its own target
// (a walk through b restarts at b, shrinking to one the suffix proves).
// Past that set-up the search is restrictSweep's.
func denseRestrict(gd *mixedAdj, mask, cov, ta, drow []uint64,
	a, b int, vis, teff []uint64, queue []int32) ([]int32, bool) {

	any := false
	for i := range teff {
		t := ta[i] & mask[i] &^ cov[i]
		teff[i] = t
		any = any || t != 0
	}
	if graph.BitGet(ta, a) && graph.BitGet(mask, a) {
		graph.BitSet(teff, a) // self-conflict edge: a is an exempt target
		any = true
	}
	if !any {
		return queue, false
	}
	for i := range vis {
		vis[i] = ^mask[i] | cov[i]
	}
	graph.BitSet(vis, a)
	graph.BitSet(vis, b)
	queue = queue[:0]
	// A usable self-conflict edge b -> b makes b itself a seed: the walk
	// may continue from b over any mixed edge, including b's program-order
	// successors, which restrictSweep's conflict-only seed step cannot
	// supply. Its vis bit (set above) only blocks re-entry, not this
	// expansion.
	if graph.BitGet(drow, b) && graph.BitGet(mask, b) {
		queue = append(queue, int32(b))
	}
	found := restrictSweep(gd, drow, mask, vis, teff, &queue)
	return queue, found
}

// localAvoidSearch is the exact fallback behind the hub solver's cell
// screen: does any node of tla lie on a path from seeds that avoids la,
// with lb's in-edges cut? Target tests precede the la/lb interior skips,
// and lb reappearing as a target is accepted, which makes it the
// disjunction over y in T(a) of "y reachable avoiding a". tla must span
// every node of lcsr.
func localAvoidSearch(sc *pairScratch, lcsr *graph.CSR, tla []uint64, seeds []int32, la, lb int) bool {
	sc.epoch++
	sc.stack = sc.stack[:0]
	for _, lx := range seeds {
		xi := int(lx)
		if graph.BitGet(tla, xi) {
			return true
		}
		if xi == la {
			continue
		}
		if sc.mark[xi] != sc.epoch {
			sc.mark[xi] = sc.epoch
			sc.stack = append(sc.stack, lx)
		}
	}
	for len(sc.stack) > 0 {
		u := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		for _, lv := range lcsr.Out(int(u)) {
			vi := int(lv)
			if sc.mark[vi] == sc.epoch {
				continue
			}
			if graph.BitGet(tla, vi) {
				return true
			}
			if vi == la || vi == lb {
				continue
			}
			sc.mark[vi] = sc.epoch
			sc.stack = append(sc.stack, lv)
		}
	}
	return false
}
