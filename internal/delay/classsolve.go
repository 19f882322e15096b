package delay

import (
	"math/bits"
	"sync"

	"repro/internal/graph"
	"repro/internal/ir"
)

// classSolve solves one dense region on bitset rows, structured around
// Constraints.AccessClass: accesses of one class share dirOut/dirIn rows
// (restricted to the region) and removal behaviour, so the per-target cut
// BFS the CSR loop runs nl times collapses to one uncut BFS per distinct
// SEED ROW — target classes are ordered so classes sharing a seed row are
// adjacent — and every question is asked at the coarsest granularity at
// which its answer is exact.
//
// Under a Removed predicate the first question is the removal's, asked once
// per (a-class, target class) cell (decideCell): a cover screen, a survivor
// screen, then a pessimistic/optimistic bracket of two exact searches. A
// back-path that survives the removal is a back-path, and one the removal
// cannot leave standing is none, so a cell that keeps or drops is the whole
// answer for its pairs: it is applied to every later target of the class as
// two row operations, and no per-pair work runs for it. What remains is the
// cell the cover cannot reach — there the plain back-path decides — and the
// cell the bracket leaves open, whose pairs pay denseRestrict or
// densePairSearch once they are known to have a back-path at all.
//
// The plain back-path is decided per pair by certificates: one uncut BFS
// per seed row yields a first-visit tree whose preorder intervals are
// nested or disjoint, so "how many witnesses of T(a) lie under subtree(la) ∪
// subtree(lb)" is two rank queries on a bitset of witness entry times. A
// witness outside both subtrees has a tree path avoiding la and lb entirely
// — an exact TRUE for the pair — and zero reachable witnesses on the UNcut
// tree is an exact FALSE (uncut reach only over-approximates the
// reference's cut reach). Pairs the shared tree cannot certify fall to the
// per-target cut tree, then the witness-predecessor certificate, and
// finally to the exact search, which by then is confined to subtree(la) of
// the cut tree (classFlow.reachAvoiding).
//
// Tree groups are independent units of work — each writes only the target
// rows of its own classes — so with fan set they are claimed by up to
// workerCount workers, each with its own mutable state over the shared
// read-only matrices; without it one worker takes them in order.
//
// Returns false — having written nothing — when the region's seed-row
// diversity makes sharing pointless; the caller then runs its CSR loop.
func classSolve(ag *ir.AccessGraph, con Constraints, out *Set,
	members []int32, mask []uint64, lof []int32,
	dirOut, dirIn graph.Rows, skip []uint64,
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

	// Group target classes by localized seed-row content: the shared tree
	// only depends on the seed row, so classes differing in guards, R class,
	// or witness rows still share it.
	type tgroup struct {
		row     []uint64 // localized seed row
		seeds   []int32
		classes []int32
	}
	var groups []*tgroup
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
			g := &tgroup{row: seedRows.Row(id)}
			for wi, word := range g.row {
				for ; word != 0; word &= word - 1 {
					g.seeds = append(g.seeds, int32(wi<<6+bits.TrailingZeros64(word)))
				}
			}
			groups = append(groups, g)
		}
		groups[id].classes = append(groups[id].classes, int32(bc))
	}
	// Too little sharing: the per-tree and per-cell state would not
	// amortize over a straight per-target sweep.
	if len(groups) > nl/3 {
		return false
	}

	// Local dense adjacency: program-order and usable conflict successors
	// within the region, in local ids, and the witness rows T(a).
	adj := ag.G.Adj
	L := graph.NewBitMatrix(nl)
	tl := graph.NewBitMatrix(nl)
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
		trow := tl.Row(lu)
		for wi, word := range dirIn.Row(gu) {
			for m := word & mask[wi]; m != 0; m &= m - 1 {
				graph.BitSet(trow, int(lof[wi<<6+bits.TrailingZeros64(m)]))
			}
		}
	}

	// L's transpose serves the cut trees and the witness-predecessor rows;
	// whichever worker first needs it builds it for all.
	var ltOnce sync.Once
	var ltShared *graph.BitMatrix
	transposed := func() *graph.BitMatrix {
		ltOnce.Do(func() { ltShared = L.Transpose() })
		return ltShared
	}

	// solver returns one worker's solve-a-tree-group function. Everything a
	// solve mutates — the two trees and their search scratch, the per-class
	// slots and their epochs, the decided-cell masks, the scratch rows, the
	// work counts — is the worker's own; L, tl and the class tables above are
	// only read. A group writes the target rows of its own classes and
	// nothing else, and the state a slot carries from one group to the next
	// (witness-predecessor rows, class member masks) is a function of the
	// class alone, so which worker solves which group, and in what order,
	// cannot change a bit of the result or a count of the work.
	solver := func(sc *regionScratch, work *classWork) func(g *tgroup) {
		flowB := newClassFlow(nl) // shared uncut tree of the current seed row
		flowC := newClassFlow(nl) // per-target cut tree, derived incrementally
		slots := make([]aclsSlot, ncl)
		tw := graph.WordsFor(2 * (nl + 2))

		visG := make([]uint64, len(mask)) // flowB.vis in global bit positions
		visGEp := int32(0)
		var pvis []uint64
		var pstack []int32
		bG := make([]uint64, len(mask)) // global members of the current target class
		bGEp := int32(0)
		// The a-classes whose removal cell against the current target class
		// is decided — kept whole, dropped whole — as global source masks.
		keepG := make([]uint64, len(mask))
		dropG := make([]uint64, len(mask))
		var lt *graph.BitMatrix    // transposed(), once this worker has asked
		var cut *classFlow         // the current target's cut tree: flowB or flowC
		var sbS, tbS, vbS []uint64 // sparse-bracket scratch (survivors, targets, visited)
		slBuf := make([]int32, 0, sparseCap+1)
		var selfT []int32
		tepoch := int32(0) // advances per tree group
		bepoch := int32(0) // advances per target class
		lepoch := int32(0) // advances per target access

		// decideCell answers the removal question for the (a-class, target
		// class) cell of the pair (a, gb), from data that is class-invariant
		// on both sides — cover, conflict rows, witness rows — so the verdict
		// holds for every pair of the cell. It needs the group's shared tree
		// (flowB) and nothing of any pair's own back-path search.
		//
		// The screen: every search of the pair, with or without the
		// removal, seeds from the target's conflict row and stays within the
		// group's uncut reach; a cover that reach never touches removes
		// nothing, and the plain back-path alone decides (s2Plain). A cell
		// none of whose surviving witnesses (outside the cover, or exempt as
		// the a-class) is uncut-reachable drops outright. Then two exact
		// searches bracket the cell: blocking BOTH whole classes
		// under-approximates blocking just {a, b}, so a hit is a back-path
		// of every pair that survives the removal — and so of the plain
		// query, which only has more nodes to walk — and the cell is TRUE;
		// blocking neither endpoint and widening the targets to the whole
		// a-class over-approximates every pair, so a miss proves the cell
		// FALSE. Only cells the bracket cannot settle pay per-pair searches.
		decideCell := func(st *aclsSlot, a, la, gb int, bc int32) uint8 {
			covG := con.RemovedCover(a, gb, sc.cover)
			if visGEp != tepoch {
				visGEp = tepoch
				for i := range visG {
					visG[i] = 0
				}
				for wi, word := range flowB.vis {
					for ; word != 0; word &= word - 1 {
						graph.BitSet(visG, int(members[wi<<6+bits.TrailingZeros64(word)]))
					}
				}
			}
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

		return func(g *tgroup) {
			tepoch++
			treeReady := false
			seeds, seedsRow := g.seeds, g.row

			for _, bc := range g.classes {
				bepoch++
				for i := range keepG {
					keepG[i], dropG[i] = 0, 0
				}

				for _, lb32 := range byClass[bc] {
					lb := int(lb32)
					gb := int(members[lb])
					lepoch++
					cutReady := false
					cand := sc.cand
					if !candidateRow(ag, gb, skip, cand) {
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
					if len(seeds) == 0 {
						continue // no usable conflict edge leaves b within the region
					}
					if !treeReady {
						treeReady = true
						flowB.reach(L, seedsRow)
					}

					for wi, word := range cand {
						for ; word != 0; word &= word - 1 {
							a := wi<<6 + bits.TrailingZeros64(word)
							la := int(lof[a])
							st := &slots[lcOf[la]]
							work.Pairs++

							// The removal question first, once per cell: a
							// back-path that survives the removal is a
							// back-path, so a cell that drops or keeps is
							// the answer and no tier below runs for it.
							if con.Removed != nil {
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
								if st.s2 == s2Drop {
									continue
								}
								if st.s2 == s2Keep {
									graph.BitSet(row, a)
									continue
								}
							}

							// Tier 0: a seed that is itself a witness is accepted
							// by the reference before any la/lb filtering — even
							// when it equals la — so the whole (a-class, tree)
							// cell is TRUE.
							// Tier 1: shared-tree interval certificate. Per
							// (a-class, target) cell the witnesses OUTSIDE
							// subtree(lb) are summarized once by their count and
							// entry-time extremes; a pair then has an uncovered
							// witness iff subtree(la) fails to bracket those
							// extremes — three integer compares on the hot path
							// instead of a rank query per pair.
							if st.e1 != tepoch {
								st.e1 = tepoch
								tla := tl.Row(la)
								st.sw = graph.AndAny(seedsRow, tla)
								if !st.sw {
									st.w1.build(tla, flowB.vis, flowB.tin, tw)
								}
							}
							res, dec := false, false
							if st.sw {
								dec, res = true, true
							} else if st.w1.total == 0 {
								dec = true // unreachable even without the cut
							} else {
								if st.eX != lepoch {
									st.eX = lepoch
									st.xOut, st.xMin, st.xMax = st.w1.outside(flowB.vis, flowB.tin, flowB.tout, lb)
								}
								if st.xOut > 0 &&
									!(graph.BitGet(flowB.vis, la) && flowB.tin[la] <= st.xMin && st.xMax <= flowB.tout[la]) {
									dec, res = true, true // witness outside both subtrees
								} else if graph.BitGet(tl.Row(la), la) && graph.BitGet(flowB.vis, la) &&
									!inSubtree(flowB.vis, flowB.tin, flowB.tout, lb, la) {
									dec, res = true, true // witness y == a, tree path avoids b
								}
							}

							// Tier 1.5: cut-tree certificate. One BFS with lb's
							// in-edges deleted — the CSR loop's per-target
							// tree — amortized over every unresolved pair of this
							// lb. Cut-tree paths are lb-legal by construction
							// (seed-equal-to-cut is still expanded, matching the
							// reference), so a witness outside subtree(la) is an
							// exact TRUE, and zero reachable witnesses is an exact
							// FALSE: the reference's accepted targets are a subset
							// of cut-reach because a target is never lb here.
							if !dec {
								tla := tl.Row(la)
								selfConf := graph.BitGet(tla, la)
								if !cutReady {
									cutReady = true
									if graph.BitGet(seedsRow, lb) {
										// The reference expands a seed equal to its
										// own cut, so the cut tree IS the shared
										// tree: every tree path has lb only in
										// start position, which is legal.
										cut = flowB
									} else {
										if lt == nil {
											lt = transposed()
										}
										flowC.reachCutFrom(L, lt, flowB, lb)
										cut = flowC
										work.CutTrees++
									}
								}
								if st.eC != lepoch {
									st.eC = lepoch
									st.wCut.build(tla, cut.vis, cut.tin, tw)
								}
								if st.wCut.total == 0 {
									dec = true
								} else if coveredCount(&st.wCut, cut.vis, cut.tin, cut.tout, la, la) < st.wCut.total {
									dec, res = true, true
								} else if selfConf && graph.BitGet(cut.vis, la) {
									// Witness y == a: accepted on generation by the
									// reference, and its cut-tree path has la only
									// as its endpoint.
									dec, res = true, true
								}

								// Tier 1.75: witness-predecessor certificate. The
								// pair is TRUE the moment any cut-tree node u
								// outside subtree(la) carries an edge into ANY
								// witness: u's tree path avoids lb (cut) and la
								// (outside its subtree), and the reference accepts
								// a generated witness before filtering it — even
								// one equal to la. P = ∪ preds(witnesses) depends
								// only on the a-class, so the per-pair test is one
								// interval rank query on the cut tree.
								if !dec {
									if !st.pOK {
										st.pOK = true
										if lt == nil {
											lt = transposed()
										}
										st.p = make([]uint64, lw)
										for wi, word := range tla {
											for ; word != 0; word &= word - 1 {
												r := lt.Row(wi<<6 + bits.TrailingZeros64(word))
												for i := range st.p {
													st.p[i] |= r[i]
												}
											}
										}
									}
									if st.eP != lepoch {
										st.eP = lepoch
										st.wP.build(st.p, cut.vis, cut.tin, tw)
									}
									if st.wP.total > 0 &&
										coveredCount(&st.wP, cut.vis, cut.tin, cut.tout, la, la) < st.wP.total {
										dec, res = true, true
									}
								}
							}

							// Tier 2: the exact per-pair search, confined. The
							// tiers above leave exactly one question open: the
							// witnesses' predecessors st.p all sit in subtree(la)
							// of the cut tree — is one of them, other than la,
							// reachable without passing la or entering lb?
							if !dec {
								res = cut.reachAvoiding(L, lt, la, st.p)
								work.ExactSearches++
								if exactTierHook != nil {
									exactTierHook(L, seeds, lb, la, tl.Row(la), res)
								}
							}
							if !res {
								continue
							}

							// What the bracket left open is asked per pair, of the
							// pairs that have a back-path at all. (s2Plain is the
							// zero value: with no Removed every slot stays there.)
							if st.s2 == s2PerPair {
								var hitP bool
								if gd != nil {
									covG := con.RemovedCover(a, gb, sc.cover)
									sc.queue, hitP = denseRestrict(gd, mask, covG, dirIn.Row(a), dirOut.Row(gb), a, gb, sc.vis, sc.teff, sc.queue)
								} else {
									if pvis == nil {
										pvis = make([]uint64, lw)
										pstack = make([]int32, 0, nl)
									}
									pstack, hitP = densePairSearch(L, pvis, pstack, tl.Row(la), members, seeds, a, la, gb, lb, con.Removed)
								}
								if !hitP {
									continue
								}
							}
							graph.BitSet(row, a)
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
	solves := make([]func(g *tgroup), nw)
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

// classWork counts what one classSolve did, in units that repeat exactly on
// any host and at any worker count — a tree group's work does not depend on
// which worker solves it: the pairs the per-pair loop visited (what the
// whole-row operations left), the removal cells decided and how many of them
// the bracket kept, the cut trees derived, the tier-2 searches run.
type classWork struct {
	Pairs, Cells, BracketKeeps, CutTrees, ExactSearches int
}

func (w *classWork) add(o classWork) {
	w.Pairs += o.Pairs
	w.Cells += o.Cells
	w.BracketKeeps += o.BracketKeeps
	w.CutTrees += o.CutTrees
	w.ExactSearches += o.ExactSearches
}

// classWorkHook, when a test sets it, receives each classSolve's counts
// summed over its workers. It is nil outside tests — one nil check per
// solved region — and like exactTierHook must not be set by two tests at
// once.
var classWorkHook func(classWork)

// exactTierHook, when a test sets it, sees every query that reaches tier 2
// and the verdict the confined search gave — enough to re-ask the
// exhaustive search. Workers call it concurrently; it is nil outside tests,
// one nil check per tier-2 query in production. A test that sets it must
// not run in parallel with another that drives classSolve.
var exactTierHook func(L *graph.BitMatrix, seeds []int32, lb, la int, targets []uint64, got bool)

// classSolveUsable reports whether the constraint shape supports the
// class-condensed engine: an access classing must exist, and the Removed
// stage needs cover rows to localize the removal set per class cell.
func classSolveUsable(con Constraints) bool {
	return con.AccessClass != nil && (con.Removed == nil || con.RemovedCover != nil)
}

// aclsSlot is the per-a-class state of the current tree group, target
// class, and target access: tier-0/1 state on the shared tree, cut-tree
// witness stats, the witness-predecessor row, and the Removed stage's
// cell decision. Epoch fields tie each part to the tree group (e1),
// target class (e2), or target access (eC, eP) it was built for; buffers
// are allocated on first use and reused across groups.
type aclsSlot struct {
	e1 int32
	sw bool // some seed is itself a witness: whole cell TRUE
	w1 witStats

	// Witnesses outside subtree(lb) on the shared tree, summarized per
	// (a-class, target access): count and entry-time extremes. The tier-1
	// per-pair test reduces to "does subtree(la) bracket [xMin, xMax]".
	eX         int32
	xOut       int32
	xMin, xMax int32

	eC   int32
	wCut witStats

	pOK bool
	p   []uint64 // union of the witnesses' predecessor rows
	eP  int32
	wP  witStats

	e2 int32
	s2 uint8    // cell decision for the Removed stage
	aG []uint64 // global members of this a-class
}

// Cell decisions for the Removed stage.
const (
	s2Plain   uint8 = iota // removal cannot touch the cell: the plain back-path decides
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

// classFlow runs one uncut BFS over the local dense adjacency, then assigns
// preorder entry/exit times over the first-visit tree. Subtree(v) is the
// time interval [tin[v], tout[v]]; intervals of distinct nodes are
// nested or disjoint, which is what makes witness counting additive.
type classFlow struct {
	nl         int
	vis        []uint64
	order      []int32
	parent     []int32
	tin, tout  []int32
	head, next []int32
	stack      []int32

	// reachCutFrom and reachAvoiding scratch: subtree members, their bitset
	// (clean between calls), full order.
	subs   []int32
	smask  []uint64
	forder []int32
}

func newClassFlow(nl int) *classFlow {
	return &classFlow{
		nl:     nl,
		vis:    make([]uint64, graph.WordsFor(nl)),
		parent: make([]int32, nl),
		tin:    make([]int32, nl+1), tout: make([]int32, nl+1),
		head: make([]int32, nl+1), next: make([]int32, nl),
		smask: make([]uint64, graph.WordsFor(nl)),
	}
}

// subtree collects subtree(v) of t's first-visit tree into f.subs, v first,
// and marks it in f.smask.
func (f *classFlow) subtree(t *classFlow, v int) {
	f.subs = append(f.subs[:0], int32(v))
	for i := 0; i < len(f.subs); i++ {
		for c := t.head[f.subs[i]]; c != -1; c = t.next[c] {
			f.subs = append(f.subs, c)
		}
	}
	for _, u := range f.subs {
		graph.BitSet(f.smask, int(u))
	}
}

// reachCutFrom derives the tree for "reachable while avoiding lb" from
// base, the same seed row's uncut tree, touching only subtree(lb): every
// node outside it keeps its base path (which avoids lb by the nesting of
// first-visit intervals), so the cut can only unhook subtree(lb) members,
// and each of those is re-entered iff some surviving node carries an edge
// into it. The visited set is the exact cut BFS fixpoint; tree paths stay
// legal lb-avoiding paths. Callers must handle lb-as-seed separately
// (the reference expands such a seed, making the cut tree identical to
// base) — here lb is simply removed.
func (f *classFlow) reachCutFrom(L, lt *graph.BitMatrix, base *classFlow, lb int) {
	copy(f.vis, base.vis)
	f.order = f.order[:0]
	if !graph.BitGet(base.vis, lb) {
		// lb unreached: cutting it changes nothing; reuse base's layout.
		copy(f.parent, base.parent)
		f.forder = append(f.forder[:0], base.order...)
		f.buildIntervals(f.forder)
		return
	}
	// Unhook subtree(lb). lb itself is gone for good: it leaves the mask,
	// so the fixpoint cannot re-enter it through an edge back to it.
	f.subtree(base, lb)
	for _, v := range f.subs {
		graph.BitClear(f.vis, int(v))
	}
	graph.BitClear(f.smask, lb)
	copy(f.parent, base.parent)
	// Re-entry scan: a subtree member (never lb itself) with any surviving
	// predecessor is reachable again through it.
	for _, v := range f.subs[1:] {
		for wi, word := range lt.Row(int(v)) {
			if m := word & f.vis[wi]; m != 0 {
				f.parent[v] = int32(wi<<6 + bits.TrailingZeros64(m))
				graph.BitSet(f.vis, int(v))
				graph.BitClear(f.smask, int(v))
				f.order = append(f.order, v)
				break
			}
		}
	}
	// Fixpoint: re-entered members may reach deeper unhooked ones.
	for i := 0; i < len(f.order); i++ {
		u := f.order[i]
		row := L.Row(int(u))
		for wi := range f.smask {
			nw := row[wi] & f.smask[wi]
			if nw == 0 {
				continue
			}
			f.smask[wi] &^= nw
			f.vis[wi] |= nw
			for ; nw != 0; nw &= nw - 1 {
				v := int32(wi<<6 + bits.TrailingZeros64(nw))
				f.parent[v] = u
				f.order = append(f.order, v)
			}
		}
	}
	for _, v := range f.subs {
		graph.BitClear(f.smask, int(v)) // leave the scratch mask clean
	}
	// Full discovery order = base order filtered to survivors; parents of
	// survivors outside the subtree are themselves outside it, so the
	// linking below always sees a parent before its children is not
	// required — only that every visited node appears exactly once.
	f.forder = f.forder[:0]
	for _, v := range base.order {
		if graph.BitGet(f.vis, int(v)) {
			f.forder = append(f.forder, v)
		}
	}
	f.buildIntervals(f.forder)
}

// reachAvoiding answers the exact avoid-search for a pair whose target's
// cut tree is f: is some node of p, other than la, reachable from the
// tree's seeds by a path that never passes la (and, f being a cut tree,
// never enters the target)? It relies on what the certificate tiers have
// established by the time they give up: la is in the tree and no tree node
// outside subtree(la) is in p. Every such outside node is reachable — its
// tree path avoids la — so the search is only over subtree(la)∖{la}, by the
// move reachCutFrom makes: a member is re-entered iff a reachable node
// carries an edge into it, and re-entered members may reach deeper ones. No
// seed is in the subtree unless it is la, which the reference search skips
// as a start node; subtree(la) is then everything first reached through it.
func (f *classFlow) reachAvoiding(L, lt *graph.BitMatrix, la int, p []uint64) bool {
	// smask holds the subtree members not known reachable, la among them
	// throughout: f.vis &^ f.smask is the reachable set so far.
	f.subtree(f, la)
	defer func() {
		for _, v := range f.subs {
			graph.BitClear(f.smask, int(v))
		}
	}()
	inner, queue := f.subs[1:], f.stack[:0]
	defer func() { f.stack = queue[:0] }()
	any := false
	for _, v := range inner {
		any = any || graph.BitGet(p, int(v))
	}
	if !any {
		return false
	}
	for _, v := range inner {
		for wi, word := range lt.Row(int(v)) {
			if word&f.vis[wi]&^f.smask[wi] != 0 {
				if graph.BitGet(p, int(v)) {
					return true
				}
				graph.BitClear(f.smask, int(v))
				queue = append(queue, v)
				break
			}
		}
	}
	law, lam := la>>6, uint64(1)<<(uint(la)&63)
	for i := 0; i < len(queue); i++ {
		row := L.Row(int(queue[i]))
		for wi := range f.smask {
			nw := row[wi] & f.smask[wi]
			if wi == law {
				nw &^= lam
			}
			if nw&p[wi] != 0 {
				return true
			}
			f.smask[wi] &^= nw
			for ; nw != 0; nw &= nw - 1 {
				queue = append(queue, int32(wi<<6+bits.TrailingZeros64(nw)))
			}
		}
	}
	return false
}

func (f *classFlow) reach(L *graph.BitMatrix, seedsRow []uint64) {
	f.order = f.order[:0]
	for i := range f.vis {
		f.vis[i] = 0
	}
	root := int32(f.nl)
	for wi := range f.vis {
		nw := seedsRow[wi] &^ f.vis[wi]
		if nw == 0 {
			continue
		}
		f.vis[wi] |= nw
		for ; nw != 0; nw &= nw - 1 {
			v := int32(wi<<6 + bits.TrailingZeros64(nw))
			f.parent[v] = root
			f.order = append(f.order, v)
		}
	}
	for i := 0; i < len(f.order); i++ {
		row := L.Row(int(f.order[i]))
		u := f.order[i]
		for wi := range f.vis {
			nw := row[wi] &^ f.vis[wi]
			if nw == 0 {
				continue
			}
			f.vis[wi] |= nw
			for ; nw != 0; nw &= nw - 1 {
				v := int32(wi<<6 + bits.TrailingZeros64(nw))
				f.parent[v] = u
				f.order = append(f.order, v)
			}
		}
	}
	f.buildIntervals(f.order)
}

// buildIntervals lays the first-visit tree over the given discovery
// order (every visited node exactly once) out as preorder entry/exit
// times under the virtual root.
func (f *classFlow) buildIntervals(order []int32) {
	root := int32(f.nl)
	f.head[root] = -1
	for _, v := range order {
		f.head[v] = -1
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		p := f.parent[v]
		f.next[v] = f.head[p]
		f.head[p] = v
	}
	t := int32(0)
	f.stack = append(f.stack[:0], root)
	for len(f.stack) > 0 {
		v := f.stack[len(f.stack)-1]
		f.stack = f.stack[:len(f.stack)-1]
		if v < 0 {
			f.tout[-(v + 1)] = t
			t++
			continue
		}
		f.tin[v] = t
		t++
		f.stack = append(f.stack, -(v + 1))
		for c := f.head[v]; c != -1; c = f.next[c] {
			f.stack = append(f.stack, c)
		}
	}
}

// witStats is the witness-position index of one (a-class, tree) pair: a
// bitset over tree entry times with per-word prefix popcounts, so any
// subtree's witness count is a two-rank difference.
type witStats struct {
	wbits []uint64
	pref  []int32
	total int32
	// Global entry-time extremes over all witnesses (valid when total > 0).
	tmin0, tmax0 int32
}

func (st *witStats) build(tla, vis []uint64, tin []int32, tw int) {
	if st.wbits == nil {
		st.wbits = make([]uint64, tw)
		st.pref = make([]int32, tw+1)
	}
	for i := range st.wbits {
		st.wbits[i] = 0
	}
	for wi := range vis {
		for m := tla[wi] & vis[wi]; m != 0; m &= m - 1 {
			y := wi<<6 + bits.TrailingZeros64(m)
			graph.BitSet(st.wbits, int(tin[y]))
		}
	}
	run := int32(0)
	loW, hiW := -1, -1
	for i, wd := range st.wbits {
		st.pref[i] = run
		run += int32(bits.OnesCount64(wd))
		if wd != 0 {
			if loW == -1 {
				loW = i
			}
			hiW = i
		}
	}
	st.pref[tw] = run
	st.total = run
	if run > 0 {
		st.tmin0 = int32(loW<<6 + bits.TrailingZeros64(st.wbits[loW]))
		st.tmax0 = int32(hiW<<6 + 63 - bits.LeadingZeros64(st.wbits[hiW]))
	}
}

// selectKth returns the entry time of the k-th witness, 1-based (caller
// guarantees 1 <= k <= total): binary search on the per-word prefix
// counts, then an in-word select.
func (st *witStats) selectKth(k int32) int32 {
	lo, hi := 0, len(st.pref)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if st.pref[mid] < k {
			lo = mid
		} else {
			hi = mid
		}
	}
	w := st.wbits[lo]
	for j := k - st.pref[lo]; j > 1; j-- {
		w &= w - 1
	}
	return int32(lo<<6 + bits.TrailingZeros64(w))
}

// outside summarizes the witnesses lying OUTSIDE subtree(lb): their count
// and their entry-time extremes. With first-visit intervals, a witness is
// outside iff its entry time falls outside [tin[lb], tout[lb]], so the
// extremes come from the global extremes when those already escape the
// interval and from one rank-directed select otherwise.
func (st *witStats) outside(vis []uint64, tin, tout []int32, lb int) (count, tmin, tmax int32) {
	if !graph.BitGet(vis, lb) {
		return st.total, st.tmin0, st.tmax0
	}
	below := st.cumBelow(tin[lb])
	aboveStart := st.cumBelow(tout[lb] + 1)
	count = st.total - (aboveStart - below)
	if count == 0 {
		return 0, 0, 0
	}
	if below > 0 {
		tmin = st.tmin0
	} else {
		tmin = st.selectKth(aboveStart + 1) // first witness past the subtree
	}
	if aboveStart < st.total {
		tmax = st.tmax0
	} else {
		tmax = st.selectKth(below) // last witness before the subtree
	}
	return count, tmin, tmax
}

// cumBelow counts witness entry times strictly below t.
func (st *witStats) cumBelow(t int32) int32 {
	wi := int(t >> 6)
	r := st.pref[wi]
	if s := uint(t) & 63; s != 0 {
		r += int32(bits.OnesCount64(st.wbits[wi] & (1<<s - 1)))
	}
	return r
}

// coveredCount counts the witnesses of st lying in subtree(la) ∪
// subtree(lb) of the tree described by (vis, tin, tout); an unreached
// node has no subtree. First-visit intervals are nested or disjoint, so
// the union is interval arithmetic, never enumeration.
func coveredCount(st *witStats, vis []uint64, tin, tout []int32, la, lb int) int32 {
	ra, rb := graph.BitGet(vis, la), graph.BitGet(vis, lb)
	var ca, cb int32
	if ra {
		ca = st.cumBelow(tout[la]+1) - st.cumBelow(tin[la])
	}
	if rb {
		cb = st.cumBelow(tout[lb]+1) - st.cumBelow(tin[lb])
	}
	if ra && rb {
		if tin[la] <= tin[lb] && tout[lb] <= tout[la] {
			return ca
		}
		if tin[lb] <= tin[la] && tout[la] <= tout[lb] {
			return cb
		}
	}
	return ca + cb
}

// inSubtree reports whether y lies in subtree(v); both must be reached.
func inSubtree(vis []uint64, tin, tout []int32, v, y int) bool {
	return graph.BitGet(vis, v) && tin[v] <= tin[y] && tout[y] <= tout[v]
}
