package delay

import (
	"math/bits"

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
// Three solvers split the work, each selected by something the engine
// observes about its input:
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
//   - the CSR loop of regionSolve is the general path: every query with
//     directed conflict edges or a Removed predicate, under any endpoint
//     filter, any region size. Under orientation the mixed graph
//     decomposes into many small SCCs — essentially the barrier phases —
//     and each region gets its own local CSR, one cut sweep per target, the
//     first-visit-tree witness screen, one exact avoid-search when the
//     screen is silent, and local per-pair re-searches when a Removed
//     predicate is present.
//
//   - classSolve is the fast path for the regions that dominate large
//     programs: at least denseRegionMin members, at least one edge per node
//     word (eLocal >= nl^2/64), and the oriented pass's shape from the
//     caller: an access classing (Constraints.AccessClass) and a Removed
//     predicate with its cover. On bitset rows it decides the removal
//     question once per (source class, target class) cell, from searches
//     shared by every cell of one seed row and cover; a cell that keeps or
//     drops is applied to whole target rows, and each pair of a cell left
//     open pays one exact restricted search. When it declines (too little
//     sharing) the region falls through to the CSR loop.
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
	// source a) depends on a only through a's conflict group and a's
	// position in the base first-visit tree, so decide summarizes each
	// (b, source-group) cell once — witness count class plus entry-time
	// extremes of the witnesses surviving the subtree(b) screen — and
	// answers members with two interval comparisons. Stamps are bumped
	// per target.
	cellEp   []int32
	cellSt   []uint8
	cellMin  []int32
	cellMax  []int32
	cellTick int32

	work hubWork // this worker's share of the counts
}

// pairScratch is the reusable state of one worker's per-pair searches.
type pairScratch struct {
	mark  []int32
	epoch int32
	stack []int32
}

// computeRegion is the engine entry point: the symmetric query without
// removal goes to the hub solver, every other shape to the region solver.
func computeRegion(ag *ir.AccessGraph, cs *conflict.Set, con Constraints) *Set {
	fn := ag.Fn
	n := len(fn.Accesses)
	out := NewSet(fn)
	if n == 0 {
		return out
	}
	// Force the lazy program-order transpose before any worker fan-out;
	// its construction is not concurrency-safe.
	_ = ag.PredRow(0)
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
	adj := ag.G.Adj

	groupOf := make([]int32, n)
	for a := 0; a < n; a++ {
		groupOf[a] = cs.GroupOf(a)
	}
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
	// avoids a and never re-enters b? It is the search the CSR loop falls
	// back to, over the hub graph (hub nodes are never witnesses: their
	// bits in the widened target row stay zero).
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
	// through a's conflict group (which fixes the witness pools) and a's
	// subtree interval in the base tree. So per (b, source-group) cell it
	// computes one summary — cellFalse (no pool member base-visited: every
	// member is exactly FALSE), cellNone (witnesses exist but all inside
	// subtree(b): open), or cellSome with the entry-time extremes [mn, mx]
	// of the witnesses surviving the subtree(b) screen. A member a of a
	// cellSome cell is base-visited (a surviving witness reaches it through
	// C and D hubs) and TRUE unless its interval covers [mn, mx], i.e.
	// every surviving witness sits inside subtree(a) — the witness
	// rejection "y == a" folds in because a's interval always covers its
	// own entry time. Only the covering members — an ancestor chain of the
	// witness span — and the cellNone cells are left open.
	const (
		poolK     = 4
		cellFalse = uint8(iota)
		cellNone
		cellSome
	)
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
		base := s.base
		btin, btout := base.TreeTimes()
		bVis := base.Visited(b)
		if s.cellEp == nil {
			s.cellEp = make([]int32, G)
			s.cellSt = make([]uint8, G)
			s.cellMin = make([]int32, G)
			s.cellMax = make([]int32, G)
		}
		s.cellTick++
		for wi, word := range cand {
			for ; word != 0; word &= word - 1 {
				a := wi<<6 + bits.TrailingZeros64(word)
				gA := groupOf[a]
				if s.cellEp[gA] != s.cellTick {
					s.cellEp[gA] = s.cellTick
					st := cellFalse
					var mn, mx int32
					for _, g2 := range ga[gA] {
						pool := s.pools[g2]
						if len(pool) == 0 {
							continue
						}
						if st == cellFalse {
							st = cellNone
						}
						for _, y := range pool {
							t := btin[y]
							if bVis && btin[b] <= t && t <= btout[b] {
								continue // y's base path may pass through b
							}
							if st != cellSome {
								st, mn, mx = cellSome, t, t
							} else if t < mn {
								mn = t
							} else if t > mx {
								mx = t
							}
						}
					}
					s.cellSt[gA], s.cellMin[gA], s.cellMax[gA] = st, mn, mx
				}
				switch s.cellSt[gA] {
				case cellFalse:
					continue // no member of T(a) is even base-reachable
				case cellSome:
					if !(btin[a] <= s.cellMin[gA] && s.cellMax[gA] <= btout[a]) {
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
		s.seeds = append(s.seeds[:0], int32(n)+int32(g))
		s.base.Reach(s.seeds, -1)
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

// denseRegionMin is the member count from which a region is tried on the
// class solver's bitset rows.
const denseRegionMin = 256

// regionScratch is one worker's reusable state for sccCompute.
type regionScratch struct {
	localOf []int32  // global -> local id, valid for the current region only
	cand    []uint64 // candidate sources of the current target
	gv      []uint64 // global visited bitset for the RemovedCover screen
	cover   []uint64 // RemovedCover scratch
	vis     []uint64 // denseRestrict visited set
	teff    []uint64 // denseRestrict effective target set
	queue   []int32  // denseRestrict BFS queue
}

func newRegionScratch(n int) *regionScratch {
	w := graph.WordsFor(n)
	return &regionScratch{
		localOf: make([]int32, n),
		cand:    make([]uint64, w),
		gv:      make([]uint64, w),
		cover:   make([]uint64, w),
		vis:     make([]uint64, w),
		teff:    make([]uint64, w),
	}
}

// sccCompute answers every constrained query by decomposing the mixed
// graph into its strongly connected components and running one per-target
// search per member on each induced subgraph. Orientation by the precedence
// relation collapses cross-phase cycles, so the regions are essentially the
// barrier phases and the per-region subgraphs stay small even when the
// program does not. Without any direction the conflict rows themselves
// serve, so Compute stays total over Constraints.
func sccCompute(ag *ir.AccessGraph, cs *conflict.Set, con Constraints, ends endpointMask, out *Set) {
	n := cs.N()
	adj := ag.G.Adj

	var dirOut, dirIn graph.Rows
	switch {
	case con.DirRows != nil:
		dirOut = con.DirRows
	case con.ConflictDir != nil:
		dm := graph.NewBitMatrix(n)
		for x := 0; x < n; x++ {
			for _, y := range cs.Partners(x) {
				if con.ConflictDir(x, y) {
					dm.Set(x, y)
				}
			}
		}
		dirOut = dm
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

	// Global mixed adjacency for word-parallel restricted searches: with an
	// exact removal cover, the per-pair re-search seeds its visited set with
	// the cover and sweeps the directed conflict rows word-parallel (one
	// physical row per class when the caller condensed them) plus the sparse
	// program-order edges. Below ~512 accesses the per-word overhead beats
	// nothing.
	var gd *mixedAdj
	if con.Removed != nil && con.RemovedExact && con.RemovedCover != nil && n >= 512 {
		gd = &mixedAdj{dir: dirOut, adj: adj}
	}

	nw := workerCount(cd.NComp)
	scr := make([]*regionScratch, nw)
	solve := func(wk, c int, fan bool) {
		if scr[wk] == nil {
			scr[wk] = newRegionScratch(n)
		}
		regionSolve(ag, con, out, cd, c, cd.Members[c], dirOut, dirIn, ends, gd, scr[wk], fan)
	}

	// A region large enough for the class solver is solved on its own, its
	// tree groups fanned over the workers (see classSolve): SPMD programs
	// tend to put most of their accesses in one region, and one worker per
	// region would leave the others idle behind it. The remaining regions
	// then share the workers one region each. Either way no more than
	// workerCount goroutines compute at a time.
	fan := classSolveUsable(con)
	var pool []int
	for c, members := range cd.Members {
		if fan && len(members) >= denseRegionMin {
			solve(0, c, true)
		} else {
			pool = append(pool, c)
		}
	}
	parallelFor(len(pool), nw, func(wk, i int) { solve(wk, pool[i], false) })
}

// regionSolve runs the per-target searches of one region. Confinement
// makes every restriction exact: seeds, targets, and interior nodes of
// any witness walk for a pair inside this region are themselves inside it
// (a node outside would extend the closed walk through another SCC). fan
// lets the class solver spread the region's tree groups over the workers;
// the caller sets it only while no other region is being solved.
func regionSolve(ag *ir.AccessGraph, con Constraints, out *Set,
	cd *graph.Condensation, c int, members []int32,
	dirOut, dirIn graph.Rows, ends endpointMask,
	gd *mixedAdj, sc *regionScratch, fan bool) {

	nl := len(members)
	w := len(sc.cand)
	mask := make([]uint64, w)
	for _, v := range members {
		graph.BitSet(mask, int(v))
	}

	// Cheap pre-pass: bail before building any local structure when no
	// target in the region has a considered same-region source.
	anyCand := false
	for _, gb := range members {
		if !candidateRow(ag, int(gb), ends, sc.cand) {
			continue
		}
		for i := range sc.cand {
			if sc.cand[i]&mask[i] != 0 {
				anyCand = true
				break
			}
		}
		if anyCand {
			break
		}
	}
	if !anyCand {
		return
	}

	lof := sc.localOf
	for i, v := range members {
		lof[v] = int32(i)
	}
	comp := cd.Comp
	adj := ag.G.Adj

	// A dense region whose accesses the caller classed goes to the class
	// solver: per-target cost drops from O(E) edge visits to O(nl^2/64)
	// word operations shared per seed row. Word-op parity sits at one edge
	// per node word. The class solver declines (writing nothing) when the
	// region's seed rows are too diverse to share trees; the CSR loop below
	// handles every shape at any size.
	if nl >= denseRegionMin && classSolveUsable(con) {
		eLocal := 0
		for _, gv := range members {
			gu := int(gv)
			for _, v := range adj[gu] {
				if comp[v] == int32(c) {
					eLocal++
				}
			}
			for wi, word := range dirOut.Row(gu) {
				eLocal += bits.OnesCount64(word & mask[wi])
			}
		}
		if eLocal >= nl*nl/64 &&
			classSolve(ag, con, out, members, mask, lof, dirOut, dirIn, ends, gd, sc, fan) {
			return
		}
	}
	lcsr := graph.BuildCSR(nl,
		func(lu int) int {
			gu := int(members[lu])
			d := 0
			for _, v := range adj[gu] {
				if comp[v] == int32(c) {
					d++
				}
			}
			for wi, word := range dirOut.Row(gu) {
				d += bits.OnesCount64(word & mask[wi])
			}
			return d
		},
		func(lu int, dst []int32) {
			gu := int(members[lu])
			i := 0
			for _, v := range adj[gu] {
				if comp[v] == int32(c) {
					dst[i] = lof[v]
					i++
				}
			}
			for wi, word := range dirOut.Row(gu) {
				for m := word & mask[wi]; m != 0; m &= m - 1 {
					dst[i] = lof[wi<<6+bits.TrailingZeros64(m)]
					i++
				}
			}
		})

	// Local target rows: tl bit (lb, ly) iff the conflict edge y -> b is
	// usable and y is in the region.
	tl := graph.NewBitMatrix(nl)
	for lu, gu := range members {
		for wi, word := range dirIn.Row(int(gu)) {
			for m := word & mask[wi]; m != 0; m &= m - 1 {
				tl.Set(lu, int(lof[wi<<6+bits.TrailingZeros64(m)]))
			}
		}
	}

	fd := graph.NewFlowDom(lcsr)
	var psc *pairScratch
	seeds := make([]int32, 0, 16)
	lw := graph.WordsFor(nl)

	for lb, gb32 := range members {
		gb := int(gb32)
		cand := sc.cand
		if !candidateRow(ag, gb, ends, cand) {
			continue
		}
		for i := range cand {
			cand[i] &= mask[i]
		}
		row := out.byB.Row(gb)
		drow := dirOut.Row(gb)
		rest := false
		for i := range cand {
			d := drow[i] & cand[i] // single conflict edge b -> a
			row[i] |= d
			cand[i] &^= d
			if cand[i] != 0 {
				rest = true
			}
		}
		if !rest {
			continue
		}
		seeds = seeds[:0]
		for wi, word := range drow {
			for m := word & mask[wi]; m != 0; m &= m - 1 {
				seeds = append(seeds, lof[wi<<6+bits.TrailingZeros64(m)])
			}
		}
		if len(seeds) == 0 {
			continue // no usable conflict edge leaves b within the region
		}
		fd.Reach(seeds, lb)
		V := fd.VisitedRow()
		gvReady := false
		for wi, word := range cand {
			for ; word != 0; word &= word - 1 {
				a := wi<<6 + bits.TrailingZeros64(word)
				la := int(lof[a])
				tla := tl.Row(la)
				res := false
				switch {
				case graph.BitGet(V, la) == false:
					res = graph.AndAny(tla, V)
				case graph.BitGet(tla, la):
					res = true
				default:
					// Witness screen: any reached y in T(a) whose first-visit
					// path provably avoids a settles the pair. Only when
					// every early witness is a tree descendant of a does the
					// exact avoid-search run.
					hit, checked := false, 0
				screen:
					for wj := 0; wj < lw; wj++ {
						for m := tla[wj] & V[wj]; m != 0; m &= m - 1 {
							y := wj<<6 + bits.TrailingZeros64(m)
							if y == la {
								continue
							}
							hit = true
							if !fd.TreeAncestor(la, y) {
								res = true
								break screen
							}
							if checked++; checked >= 16 {
								break screen
							}
						}
					}
					if !res && hit {
						if psc == nil {
							psc = &pairScratch{mark: make([]int32, nl)}
						}
						res = localAvoidSearch(psc, lcsr, tla, seeds, la, lb)
					}
				}
				if !res {
					continue
				}
				if con.Removed != nil {
					var cov []uint64
					if con.RemovedCover != nil {
						if !gvReady {
							gvReady = true
							for i := range sc.gv {
								sc.gv[i] = 0
							}
							for _, lv := range fd.Order() {
								graph.BitSet(sc.gv, int(members[lv]))
							}
						}
						cov, _ = con.RemovedCover(a, gb, sc.cover)
						if !graph.AndAny(cov, sc.gv) {
							graph.BitSet(row, a) // no removable access reachable
							continue
						}
					}
					if gd != nil {
						var hit bool
						sc.queue, hit = denseRestrict(gd, mask, cov, dirIn.Row(a), dirOut.Row(gb), a, gb, sc.vis, sc.teff, sc.queue)
						if !hit {
							continue
						}
					} else {
						if psc == nil {
							psc = &pairScratch{mark: make([]int32, nl)}
						}
						if !localPairSearch(psc, lcsr, tl, members, seeds, a, la, gb, lb, con.Removed) {
							continue
						}
					}
				}
				graph.BitSet(row, a)
			}
		}
	}
}

// denseRestrict answers one Removed-restricted pair (a, b) word-parallel
// on the global dense mixed adjacency gd, given that cov is EXACTLY the
// removed set for the pair (Constraints.RemovedExact). Instead of calling
// the predicate per encountered node, removed nodes (and everything
// outside the region) are folded into the visited set up front, so they
// are never expanded and never accepted — the reference's removed-before-
// target ordering by construction. The endpoint exemptions are restored
// explicitly: a stays avoidable-but-acceptable (its bit is set in vis so
// it is never interior, and re-added to the target set when it carries a
// usable self-conflict edge), and b's removal is irrelevant because the
// cut already keeps the walk from re-entering its own target (a walk
// through b restarts at b, shrinking to one the suffix proves).
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
	// successors, which the conflict-only seed sweep below cannot supply.
	// Its vis bit (set above) only blocks re-entry, not this expansion.
	if graph.BitGet(drow, b) && graph.BitGet(mask, b) {
		queue = append(queue, int32(b))
	}
	// Seed step: one expansion of b over its usable conflict edges.
	for wi := range vis {
		sw := drow[wi] & mask[wi]
		if sw == 0 {
			continue
		}
		if sw&teff[wi] != 0 {
			return queue, true
		}
		nw := sw &^ vis[wi]
		vis[wi] |= nw
		for ; nw != 0; nw &= nw - 1 {
			queue = append(queue, int32(wi<<6+bits.TrailingZeros64(nw)))
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		u := int(queue[qi])
		row := gd.dir.Row(u)
		for wi := range vis {
			if row[wi]&teff[wi] != 0 {
				return queue, true
			}
			nw := row[wi] &^ vis[wi]
			if nw == 0 {
				continue
			}
			vis[wi] |= nw
			for ; nw != 0; nw &= nw - 1 {
				queue = append(queue, int32(wi<<6+bits.TrailingZeros64(nw)))
			}
		}
		for _, v := range gd.adj[u] {
			if graph.BitGet(teff, v) {
				return queue, true
			}
			if !graph.BitGet(vis, v) {
				graph.BitSet(vis, v)
				queue = append(queue, int32(v))
			}
		}
	}
	return queue, false
}

// densePairSearch mirrors localPairSearch on the class solver's dense
// local adjacency. Removed nodes are marked visited-without-expansion: they
// would be skipped on every future encounter anyway, and marking caps the
// number of Removed-predicate calls at one per node.
func densePairSearch(L *graph.BitMatrix, pvis []uint64, stack []int32,
	tla []uint64, members, seeds []int32, a, la, b, lb int, rem func(a, b, z int) bool) ([]int32, bool) {

	removed := func(gz int) bool {
		if gz == a || gz == b {
			return false
		}
		return rem(a, b, gz)
	}
	if graph.BitGet(tla, lb) {
		return stack, true // single conflict edge b -> a
	}
	for i := range pvis {
		pvis[i] = 0
	}
	stack = stack[:0]
	for _, lx := range seeds {
		xi := int(lx)
		if removed(int(members[xi])) {
			continue
		}
		if graph.BitGet(tla, xi) {
			return stack, true
		}
		if xi == la || graph.BitGet(pvis, xi) {
			continue
		}
		graph.BitSet(pvis, xi)
		stack = append(stack, lx)
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		row := L.Row(int(u))
		for wi := range pvis {
			nw := row[wi] &^ pvis[wi]
			if nw == 0 {
				continue
			}
			pvis[wi] |= nw
			for ; nw != 0; nw &= nw - 1 {
				vi := wi<<6 + bits.TrailingZeros64(nw)
				if removed(int(members[vi])) {
					continue // marked above: never expanded, never a target
				}
				if graph.BitGet(tla, vi) {
					return stack, true
				}
				if vi == la || vi == lb {
					continue
				}
				stack = append(stack, int32(vi))
			}
		}
	}
	return stack, false
}

// localAvoidSearch is the exact fallback behind the CSR loop's witness
// screen and the hub solver's cell screen: does any node of tla lie on a path from
// seeds that avoids la, with lb's in-edges cut? Identical to
// localPairSearch with no Removed predicate — target tests precede the
// la/lb interior skips, and lb reappearing as a target is accepted — which
// is the disjunction over y in T(a) of "y reachable avoiding a". tla must
// span every node of lcsr.
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

// localPairSearch is the per-pair search under a Removed predicate — the
// oracle's polyBackPath step for step — on one region's induced subgraph
// and epoch-stamped scratch, translating ids only at the Removed calls.
func localPairSearch(sc *pairScratch, lcsr *graph.CSR, tl *graph.BitMatrix,
	members, seeds []int32, a, la, b, lb int, rem func(a, b, z int) bool) bool {

	removed := func(gz int) bool {
		if gz == a || gz == b {
			return false
		}
		return rem(a, b, gz)
	}
	tla := tl.Row(la)
	if graph.BitGet(tla, lb) {
		return true // single conflict edge b -> a
	}
	sc.epoch++
	sc.stack = sc.stack[:0]
	for _, lx := range seeds {
		xi := int(lx)
		if removed(int(members[xi])) {
			continue
		}
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
			if sc.mark[vi] == sc.epoch || removed(int(members[vi])) {
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
