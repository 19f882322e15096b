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
// grouped by SEED ROW (the target's conflict row inside the region), and
// each group runs one uncut BFS from its seeds: every search of one of its
// pairs, with or without the removal, stays inside that reach.
//
// Each cell is decided once (decideCell): a cover screen, a survivor
// screen, then a pessimistic/optimistic bracket of two exact searches. A
// cell that keeps or drops is the answer for all of its pairs, applied to
// every later target of the class as two row operations. Two kinds of cell
// stay open: the one the cover cannot reach (s2Plain — the removal takes
// nothing out of the reach, so the restricted search is the plain one) and
// the one the bracket cannot settle (s2PerPair). Each pair of an open cell
// pays one exact restricted search: denseRestrict on the global rows when
// the caller's cover is exact at n >= 512 (gd != nil), densePairSearch with
// the Removed predicate otherwise. A restricted back-path is also a plain
// one (TestRemovedSetWithinPlainSet), so the plain question is never asked.
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

	// Group target classes by localized seed-row content: the uncut reach
	// only depends on the seed row, so classes differing in guards, R class,
	// or witness rows still share it.
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
	// solve mutates — the group's reach, the per-class slots, the
	// decided-cell masks, the scratch rows, the work counts — is the
	// worker's own; L, tl and the class tables above are only read. A group
	// writes the target rows of its own classes and nothing else, and the
	// state a slot carries from one group to the next (the class member
	// mask) is a function of the class alone, so which worker solves which
	// group, and in what order, cannot change a bit of the result or a count
	// of the work.
	solver := func(sc *regionScratch, work *classWork) func(g *seedGroup) {
		slots := make([]aclsSlot, ncl)
		vis := make([]uint64, lw)         // the group's uncut reach, local ids
		visG := make([]uint64, len(mask)) // the same reach in global bit positions
		var pvis []uint64
		var pstack []int32
		bG := make([]uint64, len(mask)) // global members of the current target class
		bGEp := int32(0)
		// The a-classes whose removal cell against the current target class
		// is decided — kept whole, dropped whole — as global source masks.
		keepG := make([]uint64, len(mask))
		dropG := make([]uint64, len(mask))
		var sbS, tbS, vbS []uint64 // sparse-bracket scratch (survivors, targets, visited)
		slBuf := make([]int32, 0, sparseCap+1)
		var selfT []int32
		bepoch := int32(0) // advances per target class

		// decideCell answers the removal question for the (a-class, target
		// class) cell of the pair (a, gb), from data that is class-invariant
		// on both sides — cover, conflict rows, witness rows — so the verdict
		// holds for every pair of the cell. It reads the group's uncut reach
		// (visG) and nothing of any pair's own search.
		//
		// The screen: every search of the pair, with or without the
		// removal, seeds from the target's conflict row and stays within the
		// group's uncut reach; a cover that reach never touches removes
		// nothing, so each pair's restricted search is its plain one
		// (s2Plain). A cell none of whose surviving witnesses (outside the
		// cover, or exempt as the a-class) is uncut-reachable drops outright.
		// Then two exact searches bracket the cell: blocking BOTH whole
		// classes under-approximates blocking just {a, b}, so a hit is a
		// back-path of every pair that survives the removal, and the cell is
		// TRUE; blocking neither endpoint and widening the targets to the
		// whole a-class over-approximates every pair, so a miss proves the
		// cell FALSE. Only cells the bracket cannot settle pay per-pair
		// searches.
		decideCell := func(st *aclsSlot, a, la, gb int, bc int32) uint8 {
			covG := con.RemovedCover(a, gb, sc.cover)
			covHit := false
			for i, w := range visG {
				if covG[i]&mask[i]&w != 0 {
					covHit = true
					break
				}
			}
			if !covHit {
				return s2Plain // no removable access reachable
			}
			if st.aG == nil {
				st.aG = make([]uint64, len(mask))
				for _, v := range byClass[lcOf[la]] {
					graph.BitSet(st.aG, int(members[v]))
				}
			}
			ta := dirIn.Row(a)
			survReach := false
			for i, w := range visG {
				t := ta[i] & mask[i]
				if s := t&^covG[i] | t&st.aG[i]; s&w != 0 {
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
			if bGEp != bepoch {
				bGEp = bepoch
				for i := range bG {
					bG[i] = 0
				}
				for _, v := range byClass[bc] {
					graph.BitSet(bG, int(members[v]))
				}
			}
			var s2 uint8
			var sparse bool
			slBuf, sparse = survivorList(mask, covG, slBuf, sparseCap)
			if sparse {
				if sbS == nil {
					sbS = make([]uint64, len(mask))
					tbS = make([]uint64, len(mask))
					vbS = make([]uint64, len(mask))
				}
				selfT = selfT[:0]
				for _, v := range byClass[lcOf[la]] {
					if gv := int(members[v]); graph.BitGet(ta, gv) {
						selfT = append(selfT, int32(gv))
					}
				}
				s2, sc.queue = sparseCellRestrict(gd, ta, dirOut.Row(gb), st.aG, bG, slBuf, selfT, sbS, tbS, vbS, sc.queue)
			} else {
				s2, sc.queue = cellRestrict(gd, mask, covG, ta, dirOut.Row(gb), st.aG, bG, sc.vis, sc.teff, sc.queue)
			}
			return s2
		}

		return func(g *seedGroup) {
			reached := false
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
					if !reached {
						reached = true
						sc.queue = reach(L, g.seeds, vis, sc.queue)
						for i := range visG {
							visG[i] = 0
						}
						for _, lv := range sc.queue {
							graph.BitSet(visG, int(members[lv]))
						}
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
								st.s2 = decideCell(st, a, la, gb, bc)
								work.Cells++
								switch st.s2 {
								case s2Keep:
									work.BracketKeeps++
									for i, w := range st.aG {
										keepG[i] |= w
									}
								case s2Drop:
									for i, w := range st.aG {
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
								covG := con.RemovedCover(a, gb, sc.cover)
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
// and how many of those found a back-path.
type classWork struct {
	Pairs, Cells, BracketKeeps, PairSearches, PairHits int
}

func (w *classWork) add(o classWork) {
	w.Pairs += o.Pairs
	w.Cells += o.Cells
	w.BracketKeeps += o.BracketKeeps
	w.PairSearches += o.PairSearches
	w.PairHits += o.PairHits
}

// classWorkHook, when a test sets it, receives each classSolve's counts
// summed over its workers. It is nil outside tests — one nil check per
// solved region — and must not be set by two tests at once.
var classWorkHook func(classWork)

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

// sparseCap bounds the survivor count under which the Removed-stage
// bracket runs on the survivor subgraph instead of the full-width sweeps.
const sparseCap = 128

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

// survivorList collects the region nodes outside the cover, bailing out
// once more than max survive (the dense bracket is cheaper then).
func survivorList(mask, cov []uint64, sl []int32, max int) ([]int32, bool) {
	sl = sl[:0]
	for wi, w := range mask {
		for m := w &^ cov[wi]; m != 0; m &= m - 1 {
			if len(sl) == max {
				return sl, false
			}
			sl = append(sl, int32(wi<<6+bits.TrailingZeros64(m)))
		}
	}
	return sl, true
}

// sparseCellRestrict is cellRestrict on the survivor subgraph: when the
// cover blocks all but a handful of region nodes, both bracket passes can
// only ever visit survivors, so the full-width sweeps collapse to list
// walks over sl (= mask &^ cov). selfT lists the a-class members that are
// witnesses — the optimistic pass's extra targets, which stay targets
// even when covered. sb/tb/vb are zeroed scratch bitsets of global width,
// left zeroed again on return.
func sparseCellRestrict(gd *mixedAdj, ta, drow, aG, bG []uint64,
	sl, selfT []int32, sb, tb, vb []uint64, queue []int32) (uint8, []int32) {
	for _, v := range sl {
		graph.BitSet(sb, int(v))
	}
	clean := func() {
		for _, v := range sl {
			graph.BitClear(sb, int(v))
			graph.BitClear(tb, int(v))
		}
		for _, v := range selfT {
			graph.BitClear(tb, int(v))
		}
	}
	// Pessimistic pass: targets are the surviving witnesses; expansion
	// only through survivors outside both classes. A hit proves every
	// pair of the cell survives removal (blocking whole classes
	// under-approximates blocking one endpoint pair).
	hit := false
	nt := 0
	for _, v := range sl {
		if graph.BitGet(ta, int(v)) {
			graph.BitSet(tb, int(v))
			nt++
			if graph.BitGet(drow, int(v)) {
				hit = true // seed-step target, as restrictSweep's first loop
			}
		}
	}
	if nt > 0 && !hit {
		queue = queue[:0]
		for _, v := range sl {
			if graph.BitGet(drow, int(v)) && !graph.BitGet(aG, int(v)) && !graph.BitGet(bG, int(v)) {
				graph.BitSet(vb, int(v))
				queue = append(queue, v)
			}
		}
		hit = sparseSweep(gd, aG, bG, true, nil, sl, sb, tb, vb, &queue)
		for _, v := range sl {
			graph.BitClear(vb, int(v))
		}
	}
	if hit {
		clean()
		return s2Keep, queue
	}
	// Optimistic pass: interior is the cover alone, targets widened by the
	// a-class exemption; exhausting it proves no pair survives.
	for _, v := range selfT {
		graph.BitSet(tb, int(v))
		if graph.BitGet(drow, int(v)) {
			hit = true
		}
	}
	if nt == 0 && len(selfT) == 0 {
		clean()
		return s2Drop, queue
	}
	if !hit {
		queue = queue[:0]
		for _, v := range sl {
			if graph.BitGet(drow, int(v)) {
				graph.BitSet(vb, int(v))
				queue = append(queue, v)
			}
		}
		hit = sparseSweep(gd, nil, nil, false, selfT, sl, sb, tb, vb, &queue)
		for _, v := range sl {
			graph.BitClear(vb, int(v))
		}
	}
	clean()
	if hit {
		return s2PerPair, queue
	}
	return s2Drop, queue
}

// sparseSweep is restrictSweep over the survivor subgraph: per queue node
// the dense-row scan walks the survivor list instead of the full width,
// and extraT (targets outside the survivor set — the optimistic pass's
// covered a-class members) is tested against the raw row, matching the
// reference's targets-before-interior ordering.
func sparseSweep(gd *mixedAdj, aG, bG []uint64, pess bool,
	extraT, sl []int32, sb, tb, vb []uint64, queue *[]int32) bool {
	q := *queue
	for qi := 0; qi < len(q); qi++ {
		u := int(q[qi])
		row := gd.dir.Row(u)
		for _, x := range extraT {
			if graph.BitGet(row, int(x)) {
				*queue = q
				return true
			}
		}
		for _, v32 := range sl {
			v := int(v32)
			if !graph.BitGet(row, v) {
				continue
			}
			if graph.BitGet(tb, v) {
				*queue = q
				return true
			}
			if graph.BitGet(vb, v) || (pess && (graph.BitGet(aG, v) || graph.BitGet(bG, v))) {
				continue
			}
			graph.BitSet(vb, v)
			q = append(q, v32)
		}
		for _, v := range gd.adj[u] {
			if graph.BitGet(tb, v) {
				*queue = q
				return true
			}
			if !graph.BitGet(sb, v) || graph.BitGet(vb, v) ||
				(pess && (graph.BitGet(aG, v) || graph.BitGet(bG, v))) {
				continue
			}
			graph.BitSet(vb, v)
			q = append(q, int32(v))
		}
	}
	*queue = q
	return false
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
