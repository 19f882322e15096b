package delay

import (
	"math/bits"

	"repro/internal/graph"
	"repro/internal/ir"
)

// classSolve solves one dense region on bitset rows, structured around
// Constraints.AccessClass: accesses of one class share dirOut/dirIn rows
// (restricted to the region) and removal behaviour, so the question of §5.1
// step 6 — does the pair keep a back-path once Removed has taken its nodes
// out? — is asked once per (a-class, target class) CELL wherever the cell's
// answer is exact, and per pair only where it is not. Target classes are
// grouped by SEED ROW (the target's conflict row inside the region): every
// search of one of a group's pairs, with or without the removal, starts
// from that row.
//
// Each cell is decided once (decideCell), by a pessimistic/optimistic
// bracket of two searches: blocking BOTH whole classes under-approximates
// blocking just {a, b}, so a pessimistic hit is a back-path of every pair
// that survives the removal, and the cell keeps; blocking neither endpoint
// and widening the targets to the whole a-class over-approximates every
// pair, so an optimistic miss proves the cell drops. A cell that keeps or
// drops is the answer for all of its pairs, applied to every later target
// of the class as two row operations. Cells of a shared cover (one
// RemovedCover hands out with an id) share the searches themselves: the
// optimistic one depends on the a-class only through its targets, so one
// closure per (seed group, cover) drops cells with an O(1) test
// (cellClosure), and one resumable first-visit forest per (seed group,
// cover, target class) finds the pessimistic paths of the cells that keep
// (cellForest). Two kinds of cell stay open: the one the cover cannot
// reach (s2Plain — the removal takes nothing out of the reach, so the
// restricted search is the plain one) and the one the bracket cannot
// settle (s2PerPair). Each pair of an open cell pays one exact restricted
// search: denseRestrict on the global rows when the caller's cover is exact
// at n >= 512 (gd != nil), densePairSearch with the Removed predicate
// otherwise. A restricted back-path is also a plain one
// (TestRemovedSetWithinPlainSet), so the plain question is never asked.
//
// Seed groups are independent units of work — each writes only the target
// rows of its own classes — so with fan set they are claimed by up to
// workerCount workers, each with its own mutable state over the shared
// read-only matrices; without it one worker takes them in order.
//
// Returns false — having written nothing — when the region's seed-row
// diversity makes sharing pointless; the caller then runs its CSR loop.
func classSolve(ag *ir.AccessGraph, con Constraints, out *Set,
	members []int32, mask []uint64, lof []int32,
	dirOut, dirIn graph.Rows, ends endpointMask,
	gd *mixedAdj, sc *regionScratch, fan bool) bool {

	nl := len(members)
	lw := graph.WordsFor(nl)

	// Local class ids, in first-seen member order.
	lcOf := make([]int32, nl)
	gid2l := make(map[int32]int32, 64)
	ncl := 0
	for li, gv := range members {
		g := con.AccessClass[gv]
		l, ok := gid2l[g]
		if !ok {
			l = int32(ncl)
			ncl++
			gid2l[g] = l
		}
		lcOf[li] = l
	}
	byClass := make([][]int32, ncl)
	for lb := 0; lb < nl; lb++ {
		byClass[lcOf[lb]] = append(byClass[lcOf[lb]], int32(lb))
	}

	// Group target classes by localized seed-row content: the searches
	// only depend on the seed row, so classes differing in guards, R class,
	// or witness rows still share them.
	type seedGroup struct {
		seeds   []int32 // the localized seed row's members
		classes []int32
	}
	var groups []*seedGroup
	var seedRows graph.RowInterner
	buf := make([]uint64, lw)
	for bc := 0; bc < ncl; bc++ {
		drow := dirOut.Row(int(members[byClass[bc][0]]))
		for i := range buf {
			buf[i] = 0
		}
		for wi, word := range drow {
			for m := word & mask[wi]; m != 0; m &= m - 1 {
				graph.BitSet(buf, int(lof[wi<<6+bits.TrailingZeros64(m)]))
			}
		}
		id, fresh := seedRows.Intern(buf)
		if fresh {
			g := &seedGroup{}
			for wi, word := range buf {
				for ; word != 0; word &= word - 1 {
					g.seeds = append(g.seeds, int32(wi<<6+bits.TrailingZeros64(word)))
				}
			}
			groups = append(groups, g)
		}
		groups[id].classes = append(groups[id].classes, int32(bc))
	}
	// Too little sharing: the per-group and per-cell state would not
	// amortize over a straight per-target sweep.
	if len(groups) > nl/3 {
		return false
	}

	// Local dense adjacency: program-order and usable conflict successors
	// within the region, in local ids. The witness rows T(a) are localized
	// only for densePairSearch; denseRestrict reads the global rows.
	adj := ag.G.Adj
	L := graph.NewBitMatrix(nl)
	for lu, gv := range members {
		gu := int(gv)
		row := L.Row(lu)
		for _, v := range adj[gu] {
			if graph.BitGet(mask, v) {
				graph.BitSet(row, int(lof[v]))
			}
		}
		for wi, word := range dirOut.Row(gu) {
			for m := word & mask[wi]; m != 0; m &= m - 1 {
				graph.BitSet(row, int(lof[wi<<6+bits.TrailingZeros64(m)]))
			}
		}
	}
	var tl *graph.BitMatrix
	if gd == nil {
		tl = graph.NewBitMatrix(nl)
		for lu, gv := range members {
			trow := tl.Row(lu)
			for wi, word := range dirIn.Row(int(gv)) {
				for m := word & mask[wi]; m != 0; m &= m - 1 {
					graph.BitSet(trow, int(lof[wi<<6+bits.TrailingZeros64(m)]))
				}
			}
		}
	}

	// solver returns one worker's solve-a-seed-group function. Everything a
	// solve mutates — the group's reach, the shared searches, the per-class
	// slots, the decided-cell masks, the scratch rows, the work counts — is
	// the worker's own; L, tl and the class tables above are only read. A
	// group writes the target rows of its own classes and nothing else, and
	// the state a slot carries from one group to the next (the class member
	// mask) is a function of the class alone, so which worker solves which
	// group, and in what order, cannot change a bit of the result or a count
	// of the work.
	solver := func(sc *regionScratch, work *classWork) func(g *seedGroup) {
		slots := make([]aclsSlot, ncl)
		vis := make([]uint64, lw)         // the group's uncut reach, local ids
		visG := make([]uint64, len(mask)) // the same reach in global bit positions
		var reachOf *seedGroup            // the group visG holds the reach of
		var pvis []uint64
		var pstack []int32
		bG := make([]uint64, len(mask)) // global members of the current target class
		bGEp := int32(0)
		// The a-classes whose removal cell against the current target class
		// is decided — kept whole, dropped whole — as global source masks.
		keepG := make([]uint64, len(mask))
		dropG := make([]uint64, len(mask))
		bepoch := int32(0) // advances per target class
		gepoch := int32(0) // advances per seed group
		var seedsG []int32 // the current group's seeds, global ids
		var closures coverPool[cellClosure]
		var forests coverPool[cellForest]

		classMask := func(st *aclsSlot, la int) []uint64 {
			if st.aG == nil {
				st.aG = make([]uint64, len(mask))
				for _, v := range byClass[lcOf[la]] {
					graph.BitSet(st.aG, int(members[v]))
				}
			}
			return st.aG
		}
		targetMask := func(bc int32) []uint64 {
			if bGEp != bepoch {
				bGEp = bepoch
				for i := range bG {
					bG[i] = 0
				}
				for _, v := range byClass[bc] {
					graph.BitSet(bG, int(members[v]))
				}
			}
			return bG
		}

		// sharedCell decides the cell of (a, gb) from the searches it shares
		// with every cell of its cover id: the group's closure for that
		// cover, then the target class's forest. Only a cell the forest
		// leaves undecided runs cellRestrict, whose verdict it then is.
		sharedCell := func(st *aclsSlot, a, la, gb int, bc int32, id int, covG []uint64) uint8 {
			cl, fresh := closures.get(id, gepoch)
			if fresh {
				work.Closures++
				sc.queue = cl.build(gd, mask, covG, seedsG, sc.vis, sc.queue)
			}
			if cl.plain {
				return s2Plain // no removable access reachable
			}
			ta := dirIn.Row(a)
			if !graph.BitGet(cl.s1, a) {
				// No uncovered witness is touched, so the pessimistic pass
				// has no target; the optimistic one has only the a-class's
				// own witnesses, which it accepts even when covered.
				for _, v := range byClass[lcOf[la]] {
					if x := int(members[v]); graph.BitGet(ta, x) && graph.BitGet(cl.touched, x) {
						return s2PerPair
					}
				}
				return s2Drop
			}
			aG, bG := classMask(st, la), targetMask(bc)
			fr, fresh := forests.get(id, bepoch)
			if fresh {
				work.Forests++
				fr.start(mask, covG, bG, seedsG)
			}
			if fr.keeps(gd, mask, covG, ta, aG) {
				work.ForestKeeps++
				return s2Keep
			}
			work.Fallbacks++
			var s2 uint8
			s2, sc.queue = cellRestrict(gd, mask, covG, ta, dirOut.Row(gb), aG, bG, sc.vis, sc.teff, sc.queue)
			return s2
		}

		// decideCell answers the removal question for the (a-class, target
		// class) cell of the pair (a, gb), from data that is class-invariant
		// on both sides — cover, conflict rows, witness rows — so the verdict
		// holds for every pair of the cell. A cell whose cover has no id
		// (built for its pair alone) reads the group's uncut reach (visG):
		// every search of the pair, with or without the removal, seeds from
		// the target's conflict row and stays within that reach, so a cover
		// the reach never touches removes nothing (s2Plain), and a cell none
		// of whose surviving witnesses (outside the cover, or exempt as the
		// a-class) is uncut-reachable drops outright. Then cellRestrict
		// brackets it.
		decideCell := func(st *aclsSlot, a, la, gb int, bc int32, g *seedGroup) uint8 {
			covG, id := con.RemovedCover(a, gb, sc.cover)
			if gd != nil && id >= 0 { // the shared searches run on the global rows
				s2 := sharedCell(st, a, la, gb, bc, id, covG)
				if sharedCellHook != nil {
					sharedCellHook(gd, mask, covG, dirIn.Row(a), dirOut.Row(gb), classMask(st, la), targetMask(bc), s2)
				}
				return s2
			}
			if reachOf != g {
				reachOf = g
				sc.queue = reach(L, g.seeds, vis, sc.queue)
				for i := range visG {
					visG[i] = 0
				}
				for _, lv := range sc.queue {
					graph.BitSet(visG, int(members[lv]))
				}
			}
			if !graph.AndAny(covG, visG) {
				return s2Plain // no removable access reachable
			}
			aG := classMask(st, la)
			ta := dirIn.Row(a)
			survReach := false
			for i, w := range visG {
				t := ta[i] & mask[i]
				if s := t&^covG[i] | t&aG[i]; s&w != 0 {
					survReach = true
					break
				}
			}
			if !survReach {
				return s2Drop
			}
			if gd == nil {
				return s2PerPair
			}
			var s2 uint8
			s2, sc.queue = cellRestrict(gd, mask, covG, ta, dirOut.Row(gb), aG, targetMask(bc), sc.vis, sc.teff, sc.queue)
			return s2
		}

		return func(g *seedGroup) {
			gepoch++
			seedsG = seedsG[:0]
			for _, s := range g.seeds {
				seedsG = append(seedsG, members[s])
			}
			for _, bc := range g.classes {
				bepoch++
				for i := range keepG {
					keepG[i], dropG[i] = 0, 0
				}

				for _, lb32 := range byClass[bc] {
					lb := int(lb32)
					gb := int(members[lb])
					cand := sc.cand
					if !candidateRow(ag, gb, ends, cand) {
						continue
					}
					// Whole rows first: a single conflict edge b -> a is a
					// back-path by itself, and a cell an earlier target of
					// this class decided holds for this target too — its
					// sources are set or cleared here and the per-pair loop
					// below sees undecided cells only.
					row := out.byB.Row(gb)
					drow := dirOut.Row(gb)
					rest := false
					for i := range cand {
						c := cand[i] & mask[i]
						k := c & (drow[i] | keepG[i])
						row[i] |= k
						c &^= k | dropG[i]
						cand[i] = c
						if c != 0 {
							rest = true
						}
					}
					if !rest {
						continue
					}
					if len(g.seeds) == 0 {
						continue // no usable conflict edge leaves b within the region
					}

					for wi, word := range cand {
						for ; word != 0; word &= word - 1 {
							a := wi<<6 + bits.TrailingZeros64(word)
							la := int(lof[a])
							st := &slots[lcOf[la]]
							work.Pairs++

							// The cell first: one that drops or keeps is the
							// answer for every pair in it.
							if st.e2 != bepoch {
								st.e2 = bepoch
								st.s2 = decideCell(st, a, la, gb, bc, g)
								work.Cells++
								switch st.s2 {
								case s2Keep:
									work.BracketKeeps++
									for i, w := range st.aG {
										keepG[i] |= w
									}
								case s2Drop:
									for i, w := range classMask(st, la) {
										dropG[i] |= w
									}
								}
							}
							switch st.s2 {
							case s2Drop:
								continue
							case s2Keep:
								graph.BitSet(row, a)
								continue
							}

							// An open cell: one exact restricted search per pair.
							work.PairSearches++
							var hit bool
							if gd != nil {
								covG, _ := con.RemovedCover(a, gb, sc.cover)
								sc.queue, hit = denseRestrict(gd, mask, covG, dirIn.Row(a), drow, a, gb, sc.vis, sc.teff, sc.queue)
							} else {
								if pvis == nil {
									pvis = make([]uint64, lw)
									pstack = make([]int32, 0, nl)
								}
								pstack, hit = densePairSearch(L, pvis, pstack, tl.Row(la), members, g.seeds, a, la, gb, lb, con.Removed)
							}
							if hit {
								work.PairHits++
								graph.BitSet(row, a)
							}
						}
					}
				}
			}
		}
	}

	nw := 1
	if fan {
		nw = workerCount(len(groups))
	}
	solves := make([]func(g *seedGroup), nw)
	works := make([]classWork, nw)
	solves[0] = solver(sc, &works[0])
	parallelFor(len(groups), nw, func(wk, i int) {
		if solves[wk] == nil {
			solves[wk] = solver(newRegionScratch(len(lof)), &works[wk])
		}
		solves[wk](groups[i])
	})
	if classWorkHook != nil {
		var sum classWork
		for _, w := range works {
			sum.add(w)
		}
		classWorkHook(sum)
	}
	return true
}

// reach fills vis with the nodes of L reachable from seeds, the seeds among
// them, by a word-parallel BFS, and returns its queue: every reached node,
// once each.
func reach(L *graph.BitMatrix, seeds []int32, vis []uint64, queue []int32) []int32 {
	for i := range vis {
		vis[i] = 0
	}
	queue = append(queue[:0], seeds...)
	for _, s := range seeds {
		graph.BitSet(vis, int(s))
	}
	for qi := 0; qi < len(queue); qi++ {
		row := L.Row(int(queue[qi]))
		for wi := range vis {
			nw := row[wi] &^ vis[wi]
			if nw == 0 {
				continue
			}
			vis[wi] |= nw
			for ; nw != 0; nw &= nw - 1 {
				queue = append(queue, int32(wi<<6+bits.TrailingZeros64(nw)))
			}
		}
	}
	return queue
}

// classWork counts what one classSolve did, in units that repeat exactly on
// any host and at any worker count — a seed group's work does not depend on
// which worker solves it: the pairs the per-pair loop visited (what the
// whole-row operations left), the removal cells decided and how many of them
// the bracket kept, and the restricted searches the open cells' pairs ran
// and how many of those found a back-path. Of the shared searches it counts
// the closures built (one per seed group and cover), the forests started
// (one per seed group, cover and target class), the cells a forest kept,
// and the cells a forest left to cellRestrict.
type classWork struct {
	Pairs, Cells, BracketKeeps, PairSearches, PairHits int
	Closures, Forests, ForestKeeps, Fallbacks          int
}

func (w *classWork) add(o classWork) {
	w.Pairs += o.Pairs
	w.Cells += o.Cells
	w.BracketKeeps += o.BracketKeeps
	w.PairSearches += o.PairSearches
	w.PairHits += o.PairHits
	w.Closures += o.Closures
	w.Forests += o.Forests
	w.ForestKeeps += o.ForestKeeps
	w.Fallbacks += o.Fallbacks
}

// classWorkHook, when a test sets it, receives each classSolve's counts
// summed over its workers. It is nil outside tests — one nil check per
// solved region — and must not be set by two tests at once.
var classWorkHook func(classWork)

// sharedCellHook, when a test sets it, receives every cell the shared
// searches decide: what cellRestrict reads to bracket it, and the verdict.
// Workers call it concurrently. It is nil outside tests.
var sharedCellHook func(gd *mixedAdj, mask, cov, ta, drow, aG, bG []uint64, s2 uint8)

// classSolveUsable reports whether the constraint shape is the one the
// class-condensed engine answers — the oriented pass of §5.1 step 6: an
// access classing, and a Removed predicate with cover rows to localize the
// removal set per class cell. Every other shape runs the CSR loop, which
// answers them all.
func classSolveUsable(con Constraints) bool {
	return con.AccessClass != nil && con.Removed != nil && con.RemovedCover != nil
}

// aclsSlot is one worker's state for one a-class: its removal cell against
// the current target class (e2 ties the decision to the target class it was
// made for) and its global member mask, built on first use and kept across
// seed groups.
type aclsSlot struct {
	e2 int32
	s2 uint8    // cell decision
	aG []uint64 // global members of this a-class
}

// Cell decisions for the Removed stage.
const (
	s2Plain   uint8 = iota // removal cannot touch the cell: per-pair search, restricted = plain
	s2Keep                 // every pair of the cell has a back-path that survives removal
	s2Drop                 // no pair survives
	s2PerPair              // bracket inconclusive: exact per-pair search
)

// coverPool hands out one T per cover id for the current stamp (a seed
// group for closures, a target class for forests), reusing the Ts of
// earlier stamps. Stamps start at 1 and only grow.
type coverPool[T any] struct {
	at    []int32 // cover id -> index into items, valid while ep[id] == cur
	ep    []int32
	cur   int32
	items []*T
	n     int // items handed out under cur
}

// get returns id's T under stamp, and whether it is fresh: handed out for
// the first time under this stamp, its contents left from an earlier one.
func (p *coverPool[T]) get(id int, stamp int32) (*T, bool) {
	if stamp != p.cur {
		p.cur, p.n = stamp, 0
	}
	for id >= len(p.at) {
		p.at = append(p.at, 0)
		p.ep = append(p.ep, 0)
	}
	if p.ep[id] == stamp {
		return p.items[p.at[id]], false
	}
	if p.n == len(p.items) {
		p.items = append(p.items, new(T))
	}
	p.at[id], p.ep[id] = int32(p.n), stamp
	p.n++
	return p.items[p.n-1], true
}

// cellClosure is the optimistic bracket search of every cell of one (seed
// group, cover), run once to exhaustion: a BFS from the group's seeds with
// the cover and everything outside the region blocked. A cell's optimistic
// search is this one with a target test on top — any witness y -> a outside
// the cover, or any witness in the a-class — so it misses exactly when no
// such target is touched.
type cellClosure struct {
	// touched holds the seeds and every region successor of an expanded
	// node: the nodes a cell's optimistic search tests as targets.
	touched []uint64
	// s1 is the OR of the directed conflict rows of the expanded nodes —
	// the touched nodes outside the cover — so a is in s1 exactly when an
	// uncovered witness of a is touched.
	s1 []uint64
	// plain: the cover meets nothing touched, hence nothing in the group's
	// uncut reach (the first covered node on an uncut path is touched), and
	// the removal leaves every search of the cell as it was.
	plain bool
}

// build runs the closure of seeds under cov. vis and queue are scratch.
func (c *cellClosure) build(gd *mixedAdj, mask, cov []uint64, seeds []int32, vis []uint64, queue []int32) []int32 {
	if c.touched == nil {
		c.touched = make([]uint64, len(mask))
		c.s1 = make([]uint64, len(mask))
	}
	for i := range vis {
		vis[i] = ^mask[i] | cov[i]
		c.touched[i], c.s1[i] = 0, 0
	}
	queue = queue[:0]
	for _, s := range seeds {
		graph.BitSet(c.touched, int(s))
		if !graph.BitGet(vis, int(s)) {
			graph.BitSet(vis, int(s))
			queue = append(queue, s)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		u := int(queue[qi])
		for wi, r := range gd.dir.Row(u) {
			c.s1[wi] |= r
			nw := r &^ vis[wi]
			if nw == 0 {
				continue
			}
			vis[wi] |= nw
			for ; nw != 0; nw &= nw - 1 {
				queue = append(queue, int32(wi<<6+bits.TrailingZeros64(nw)))
			}
		}
		for _, v := range gd.adj[u] {
			graph.BitSet(c.touched, v)
			if !graph.BitGet(vis, v) {
				graph.BitSet(vis, v)
				queue = append(queue, int32(v))
			}
		}
	}
	for i := range c.touched {
		c.touched[i] = (c.touched[i] | c.s1[i]) & mask[i]
	}
	c.plain = !graph.AndAny(c.touched, cov)
	return queue
}

// cellForest is the pessimistic side shared by the cells of one (seed
// group, cover, target class): a first-visit BFS from the group's seeds
// with the cover, the target class and everything outside the region
// blocked, which records for each node it touches the expanded node that
// touched it first. The cell's pessimistic search blocks the a-class on
// top, so a touched uncovered witness of a whose first toucher's tree path
// avoids the a-class is a pessimistic hit. The BFS grows only while no
// cell's question is answered from what it has touched.
type cellForest struct {
	touched []uint64 // the seeds and every region successor of an expanded node
	vis     []uint64 // blocked or queued
	from    []int32  // node -> its first toucher, -1 for a seed; valid while touched
	queue   []int32  // queued nodes, global ids; queue[:next] are expanded
	next    int
}

// start resets the forest to its seeds under cov, with the target class bG
// blocked.
func (f *cellForest) start(mask, cov, bG []uint64, seeds []int32) {
	if f.touched == nil {
		f.touched = make([]uint64, len(mask))
		f.vis = make([]uint64, len(mask))
		f.from = make([]int32, len(mask)<<6)
	}
	for i := range f.vis {
		f.vis[i] = ^mask[i] | cov[i] | bG[i]
		f.touched[i] = 0
	}
	f.queue, f.next = f.queue[:0], 0
	for _, s := range seeds {
		graph.BitSet(f.touched, int(s))
		f.from[s] = -1
		if !graph.BitGet(f.vis, int(s)) {
			graph.BitSet(f.vis, int(s))
			f.queue = append(f.queue, s)
		}
	}
}

// keeps reports whether the forest shows a pessimistic hit for the cell
// whose a has witness row ta and whose a-class is aG: an uncovered witness
// that is a seed, or whose first toucher's tree path avoids aG. It first
// checks what is already touched, then grows the BFS one expanded node at a
// time until a hit or exhaustion. A false answer is not a miss: the
// pessimistic search may reach a witness by a path the first-visit tree
// does not hold.
func (f *cellForest) keeps(gd *mixedAdj, mask, cov, ta, aG []uint64) bool {
	for wi, t := range f.touched {
		for m := t & ta[wi] &^ cov[wi]; m != 0; m &= m - 1 {
			if f.avoids(f.from[wi<<6+bits.TrailingZeros64(m)], aG) {
				return true
			}
		}
	}
	for f.next < len(f.queue) {
		u := f.queue[f.next]
		f.next++
		hit := false
		for wi, r := range gd.dir.Row(int(u)) {
			nw := r & mask[wi] &^ f.touched[wi]
			if nw == 0 {
				continue
			}
			f.touched[wi] |= nw
			hit = hit || nw&ta[wi]&^cov[wi] != 0
			for m := nw; m != 0; m &= m - 1 {
				f.from[wi<<6+bits.TrailingZeros64(m)] = u
			}
			nw &^= f.vis[wi]
			f.vis[wi] |= nw
			for ; nw != 0; nw &= nw - 1 {
				f.queue = append(f.queue, int32(wi<<6+bits.TrailingZeros64(nw)))
			}
		}
		for _, v := range gd.adj[u] {
			if !graph.BitGet(mask, v) || graph.BitGet(f.touched, v) {
				continue
			}
			graph.BitSet(f.touched, v)
			f.from[v] = u
			hit = hit || graph.BitGet(ta, v) && !graph.BitGet(cov, v)
			if !graph.BitGet(f.vis, v) {
				graph.BitSet(f.vis, v)
				f.queue = append(f.queue, int32(v))
			}
		}
		if hit && f.avoids(u, aG) {
			return true
		}
	}
	return false
}

// avoids reports whether the tree path from a seed to u (u itself
// included; -1 is the empty path before a seed) has no node in aG.
func (f *cellForest) avoids(u int32, aG []uint64) bool {
	for ; u >= 0; u = f.from[u] {
		if graph.BitGet(aG, int(u)) {
			return false
		}
	}
	return true
}

// cellRestrict brackets one (a-class, b-class) cell of the Removed
// stage. The pessimistic search blocks every member of both classes as
// interior — an under-approximation of any single pair's search, which
// blocks only {a, b} — so reaching a target proves all pairs TRUE. The
// optimistic search blocks neither endpoint and accepts the whole
// a-class as exempt targets — an over-approximation — so exhausting it
// proves all pairs FALSE. Targets are tested before the interior filter,
// matching the reference's removed-before-target ordering.
func cellRestrict(gd *mixedAdj, mask, cov, ta, drow, aG, bG, vis, teff []uint64, queue []int32) (uint8, []int32) {
	// Pessimistic pass: interior = region complement ∪ cover ∪ both classes.
	any := false
	for i := range teff {
		t := ta[i] & mask[i] &^ cov[i]
		teff[i] = t
		any = any || t != 0
	}
	if any {
		for i := range vis {
			vis[i] = ^mask[i] | cov[i] | aG[i] | bG[i]
		}
		queue = queue[:0]
		if restrictSweep(gd, drow, mask, vis, teff, &queue) {
			return s2Keep, queue
		}
	}
	// Optimistic pass: interior = region complement ∪ cover only; targets
	// widened by the a-class exemption; the b-self continuation widened to
	// any self-conflicting member of the b-class.
	any = false
	for i := range teff {
		t := (ta[i]&^cov[i] | ta[i]&aG[i]) & mask[i]
		teff[i] = t
		any = any || t != 0
	}
	if !any {
		return s2Drop, queue
	}
	for i := range vis {
		vis[i] = ^mask[i] | cov[i]
	}
	queue = queue[:0]
	for wi := range vis {
		for m := drow[wi] & bG[wi] & mask[wi]; m != 0; m &= m - 1 {
			b := wi<<6 + bits.TrailingZeros64(m)
			if !graph.BitGet(vis, b) {
				graph.BitSet(vis, b)
				queue = append(queue, int32(b))
			}
		}
	}
	if restrictSweep(gd, drow, mask, vis, teff, &queue) {
		return s2PerPair, queue
	}
	return s2Drop, queue
}

// restrictSweep runs the shared body of both cellRestrict passes: one
// seed step over the target class's conflict row, then a masked BFS on
// the global mixed adjacency, accepting any teff target on generation.
// queue may arrive pre-seeded (the b-self continuation).
func restrictSweep(gd *mixedAdj, drow, mask, vis, teff []uint64, queue *[]int32) bool {
	q := *queue
	for wi := range vis {
		sw := drow[wi] & mask[wi]
		if sw == 0 {
			continue
		}
		if sw&teff[wi] != 0 {
			*queue = q
			return true
		}
		nw := sw &^ vis[wi]
		vis[wi] |= nw
		for ; nw != 0; nw &= nw - 1 {
			q = append(q, int32(wi<<6+bits.TrailingZeros64(nw)))
		}
	}
	for qi := 0; qi < len(q); qi++ {
		u := int(q[qi])
		row := gd.dir.Row(u)
		for wi := range vis {
			if row[wi]&teff[wi] != 0 {
				*queue = q
				return true
			}
			nw := row[wi] &^ vis[wi]
			if nw == 0 {
				continue
			}
			vis[wi] |= nw
			for ; nw != 0; nw &= nw - 1 {
				q = append(q, int32(wi<<6+bits.TrailingZeros64(nw)))
			}
		}
		for _, v := range gd.adj[u] {
			if graph.BitGet(teff, v) {
				*queue = q
				return true
			}
			if !graph.BitGet(vis, v) {
				graph.BitSet(vis, v)
				q = append(q, int32(v))
			}
		}
	}
	*queue = q
	return false
}
