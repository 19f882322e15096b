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
//   - hubCompute takes the symmetric query, under any endpoint filter
//     (step 2's D1 and the rest of the Shasha–Snir baseline; computeRegion
//     selects it when the query has no DirRows). There barrier conflict
//     edges glue the whole program into one giant SCC and regionization
//     is useless. Instead the Theta(n^2) conflict edges are compressed
//     through per-group hub nodes: the accesses of one conflict group
//     (conflict.Set) have one conflict row, so one collector node per
//     group receives its members and one distributor node re-emits them,
//     turning each group-pair clique into two hub edges. One uncut base
//     BFS per conflict group runs on ~2n + g^2 edges instead of n^2; the
//     witness pools drawn from it decide each (target, source's group)
//     cell a word at a time, and each candidate a cell leaves open gets
//     one exact avoid-search. The endpoint filter narrows each target's
//     candidates, and a conflict group none of whose members has a
//     candidate skips its base sweep.
//
//   - classSolve takes the oriented query: directed conflict edges and a
//     Removed predicate, under any endpoint filter. Under orientation the
//     mixed graph decomposes into many small SCCs — essentially the
//     barrier phases — which sccCompute hands it one after another. On
//     bitset rows it decides the removal question once per (source class,
//     target class) cell, from searches shared by every cell of one seed
//     row and cover, each of which scans the conflict row a class's
//     members share once; a cell that keeps or drops is applied to whole
//     target rows, and each pair of a cell left open pays one exact
//     restricted search.
//
// DESIGN.md §19 records how much traffic each solver and each fallback
// inside them carries, and how to re-measure it.
type hubScratch struct {
	seeds []int32
	psc   *pairScratch // exact avoid-search state, built on first use
	ta    []uint64     // T(a) widened to the hub graph's node count
	cand  []uint64
	open  []int32 // the members of the current cell left to the per-member test
	swept int     // the group whose base sweep is current

	// The uncut base sweep shared by every source of one conflict group,
	// plus per-group witness pools drawn from it.
	base    *graph.FlowDom
	pools   [][]int32
	poolBuf []int32

	// Per-sweep witness spans (spanOf): class k's witnesses sorted by
	// entry time are wit[spanAt[k]:spanEnd[k]]. spanEp stamps a span with
	// the sweep that built it; wit is emptied per sweep and keeps its
	// capacity.
	spanEp, spanAt, spanEnd []int32
	wit                     []int32
	sweep                   int32

	work hubWork // this worker's share of the counts
}

// memberWord is one nonzero word of a conflict group's member mask.
type memberWord struct {
	i int32
	m uint64
}

// pairScratch is the reusable state of one worker's per-pair searches.
type pairScratch struct {
	mark  []int32
	epoch int32
	stack []int32
}

// computeRegion is the engine entry point: the symmetric query goes to the
// hub solver, the oriented one to the class solver.
func computeRegion(ag *ir.AccessGraph, cs *conflict.Set, con Constraints) *Set {
	fn := ag.Fn
	n := len(fn.Accesses)
	out := NewSet(fn)
	if n == 0 {
		return out
	}
	ends := con.Endpoints.mask(graph.WordsFor(n))
	if con.DirRows == nil {
		hubCompute(ag, cs, ends, out)
	} else {
		sccCompute(ag, con, ends, out)
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
// group with a considered pair), the (target, conflict group) cells
// decided and their covering-chain members sent back to the per-member
// test, and the exact avoid-searches, with how many found a back-path.
type hubWork struct {
	Candidates, BaseSweeps, Cells, Covered, AvoidSearches, AvoidHits int
}

func (w *hubWork) add(o hubWork) {
	w.Candidates += o.Candidates
	w.BaseSweeps += o.BaseSweeps
	w.AvoidSearches += o.AvoidSearches
	w.AvoidHits += o.AvoidHits
	w.Cells += o.Cells
	w.Covered += o.Covered
}

// hubWorkHook, when a test sets it, receives each hubCompute's endpoint
// filter and its counts summed over its workers. It is nil outside tests.
var hubWorkHook func(endpointMask, hubWork)

// coveringHook, when a test sets it, receives each cellSome cell of the hub
// solver once its covering-chain walk has taken the members it sends back
// out of cand. Workers call it concurrently. It is nil outside tests.
var coveringHook func(cand []uint64, members []memberWord, btin, btout []int32, mn, mx int32, chain []int32)

// The hub solver's cell summaries (see decide in hubCompute).
const (
	cellFalse uint8 = iota // no witness: every member of the cell is FALSE
	cellNone               // every witness inside subtree(b): the cell is open
	cellSome               // [mn, mx] spans the witnesses outside subtree(b)
)

// witnessSpan summarizes one (target b, conflict group) cell from w, the
// group's witnesses sorted by their base-tree entry times tin, against b's
// subtree interval [lo, hi] (ignored when b is not base-visited, inVis
// false): cellFalse when w is empty, cellNone when every witness lies
// inside the interval, else cellSome with the witnesses of smallest and
// largest entry time outside it.
func witnessSpan(w, tin []int32, inVis bool, lo, hi int32) (st uint8, mn, mx int32) {
	if len(w) == 0 {
		return cellFalse, 0, 0
	}
	last := len(w) - 1
	if !inVis {
		return cellSome, w[0], w[last]
	}
	entry := func(y, t int32) int { return int(tin[y] - t) }
	i, _ := slices.BinarySearchFunc(w, lo, entry)   // first entry >= lo
	j, _ := slices.BinarySearchFunc(w, hi+1, entry) // first entry > hi
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
// removal (computeRegion sends the oriented query to sccCompute) — on the
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

	// Groups are the classes of equal conflict rows, so every member of
	// one has the same witnesses in every sweep and the cell screen works
	// per group: mem[g] lists g's members, kmem[g] holds their nonzero
	// words, and spanWords bounds what one sweep's spans hold.
	ga, mem, kmem := make([][]int32, G), make([][]int32, G), make([][]memberWord, G)
	memSlab, wordSlab := make([]int32, 0, n), make([]memberWord, 0, n) // a word per member at most
	spanWords := 0
	for g := 0; g < G; g++ {
		ga[g] = cs.GroupAdj(g)
		spanWords += poolK * len(ga[g])
		at, wat := len(memSlab), len(wordSlab)
		for wi, word := range cs.GroupMembers(g) {
			if word != 0 {
				wordSlab = append(wordSlab, memberWord{i: int32(wi), m: word})
			}
			for ; word != 0; word &= word - 1 {
				memSlab = append(memSlab, int32(wi<<6+bits.TrailingZeros64(word)))
			}
		}
		mem[g], kmem[g] = memSlab[at:len(memSlab):len(memSlab)], wordSlab[wat:len(wordSlab):len(wordSlab)]
	}
	groupOf := make([]int32, n)
	for a := range groupOf {
		groupOf[a] = cs.GroupOf(a)
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
	// The screen depends on a only through the groups a conflicts with
	// (the witness pools) and a's subtree interval in the base tree, so per
	// cell — b and a's group — it computes one summary and acts on the
	// cell's candidates a word at a time: cellFalse drops them, cellNone
	// (every witness inside subtree(b)) sends each to the avoid-search, and
	// cellSome keeps each whose interval does not cover [mn, mx], the entry
	// times of the witnesses outside subtree(b). Such a member is
	// base-visited (a witness reaches it through C and D hubs), and
	// "y == a" folds in: a's interval covers its own entry time. Intervals
	// nest, so the covering members are the ancestors (or self) of the
	// witness entered at mn whose subtree closes at or after mx; decide
	// walks that chain and sends them to the per-member test.
	//
	// A cell's witnesses depend on the sweep and the group alone, so the
	// first target of a sweep that asks about a group sorts them by
	// entry time into a span (spanOf), and each target's summary is two
	// binary searches into it (witnessSpan).
	spanOf := func(s *hubScratch, k int32, btin []int32) []int32 {
		if s.spanEp[k] != s.sweep {
			s.spanEp[k] = s.sweep
			at := len(s.wit)
			for _, g2 := range ga[k] {
				s.wit = append(s.wit, s.pools[g2]...)
			}
			slices.SortFunc(s.wit[at:], func(x, y int32) int { return int(btin[x] - btin[y]) })
			s.spanAt[k], s.spanEnd[k] = int32(at), int32(len(s.wit))
		}
		return s.wit[s.spanAt[k]:s.spanEnd[k]]
	}
	// sweep runs group g's uncut base sweep and draws its witness pools.
	sweep := func(s *hubScratch, g int) {
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
	}
	decide := func(s *hubScratch, g, b int) {
		cand := s.cand
		if !candidateRow(ag, b, ends, cand) {
			return
		}
		row := out.byB.Row(b)
		crb := cs.Row(b)
		left, any := 0, false
		for i := range cand {
			any = any || cand[i] != 0
			d := crb[i] & cand[i] // single conflict edge b -> a
			row[i] |= d
			cand[i] &^= d
			left += bits.OnesCount64(cand[i])
		}
		if any && s.swept != g {
			s.swept = g
			sweep(s, g)
		}
		s.work.Candidates += left
		if left == 0 {
			return
		}
		base := s.base
		btin, btout, parent := base.TreeTimes()
		bVis := base.Visited(b)
		// Each cell is met at its lowest candidate and then cleared from
		// cand whole, so the scan visits one bit per cell.
		for wi := range cand {
			for cand[wi] != 0 {
				k := groupOf[wi<<6+bits.TrailingZeros64(cand[wi])]
				s.work.Cells++
				st, ymn, ymx := witnessSpan(spanOf(s, k, btin), btin, bVis, btin[b], btout[b])
				open := s.open[:0]
				if st == cellSome {
					mn, mx := btin[ymn], btin[ymx]
					for u := ymn; u != int32(N); u = parent[u] {
						if btout[u] >= mx && u < int32(n) && groupOf[u] == k && graph.BitGet(cand, int(u)) {
							open = append(open, u)
							graph.BitClear(cand, int(u))
						}
					}
					if coveringHook != nil {
						coveringHook(cand, kmem[k], btin, btout, mn, mx, open)
					}
					s.work.Covered += len(open)
				}
				for _, mw := range kmem[k] {
					c := cand[mw.i] & mw.m
					cand[mw.i] &^= mw.m
					switch st {
					case cellSome:
						row[mw.i] |= c
					case cellNone:
						for ; c != 0; c &= c - 1 {
							open = append(open, mw.i<<6+int32(bits.TrailingZeros64(c)))
						}
					}
				}
				for _, a32 := range open {
					a := int(a32)
					// A covering member's own self-conflict edge still
					// closes the path when a base path outside subtree(b)
					// reaches a.
					if st == cellSome && graph.BitGet(sc, a) && (!bVis || btin[a] < btin[b] || btout[b] < btin[a]) ||
						avoid(s, a, b) {
						graph.BitSet(row, a)
					}
				}
				s.open = open
			}
		}
	}

	// Group-major sweeps: one shared base per conflict group, run when the
	// first member with a considered source asks for it, so a group the
	// endpoint filter leaves no source skips its sweep.
	nw := workerCount(G)
	scr := make([]*hubScratch, nw)
	parallelFor(G, nw, func(wk, g int) {
		if len(ga[g]) == 0 {
			return // no usable conflict edge leaves any member
		}
		if scr[wk] == nil {
			buf := make([]int32, 3*G+spanWords) // spanWords of room for wit: never outgrown
			scr[wk] = &hubScratch{cand: make([]uint64, w), seeds: make([]int32, 0, 2), base: graph.NewFlowDom(hub),
				poolBuf: make([]int32, poolK*G), pools: make([][]int32, G), swept: -1,
				spanEp: buf[:G:G], spanAt: buf[G : 2*G : 2*G], spanEnd: buf[2*G : 3*G : 3*G], wit: buf[3*G : 3*G]}
		}
		for _, b := range mem[g] {
			decide(scr[wk], g, int(b))
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
// restricted searches: the sparse program-order edges plus the directed
// conflict rows, physically shared per class and never expanded here,
// traversed separately so no per-access n-bit union row ever materializes.
type mixedAdj struct {
	adj [][]int
	dir *graph.ClassRows
}

// in returns x's directed column: the accesses with a usable conflict edge
// into x, its witnesses.
func (gd *mixedAdj) in(x int) []uint64 { return gd.dir.ClassCol[gd.dir.ClassOf[x]] }

// sccCompute answers the oriented query: it has classSolve answer the
// components of the query's condensation one after another, each region's
// seed groups spread over the workers. Orientation by the precedence
// relation collapses cross-phase cycles, so the regions are essentially
// the barrier phases.
func sccCompute(ag *ir.AccessGraph, con Constraints, ends endpointMask, out *Set) {
	e := newClassEngine(ag, out, ends, &mixedAdj{adj: ag.Succ, dir: con.DirRows}, con.RemovedCover)
	for _, members := range con.Comp.Members {
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
	a, b int, vis, teff []uint64, queue []int32, rs *rowScans) ([]int32, bool) {

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
	found := restrictSweep(gd, drow, mask, vis, teff, &queue, rs)
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
