package delay

import (
	"math/bits"

	"repro/internal/graph"
	"repro/internal/ir"
)

// classSolve is the solver of the oriented query. It answers §5.1 step 6's
// question — does the pair keep a back-path once Removed has taken its
// nodes out? — on bitset rows, one region at a time, structured around the
// access classing (the ClassOf of Constraints.DirRows): accesses of one
// class share their directed rows and columns and their removal behaviour,
// so the question is asked once per (a-class, target class) CELL wherever
// the cell's answer is exact, and per pair only where it is not. Every
// removal arrives as the exact cover of the removed accesses
// (Constraints.RemovedCover). Target classes are grouped by SEED ROW (the
// target's conflict row inside the region): every search of one of a
// group's pairs, with or without the removal, starts from that row.
//
// Each cell is decided once (decideCell), by a pessimistic/optimistic
// bracket of two searches: blocking BOTH whole classes under-approximates
// blocking just {a, b}, so a pessimistic hit is a back-path of every pair
// that survives the removal, and the cell keeps; blocking neither endpoint
// and widening the targets to the whole a-class over-approximates every
// pair, so an optimistic miss proves the cell drops. A cell that keeps or
// drops is the answer for all of its pairs, applied to every later target
// of the class as two row operations. Cells of a shared cover (one the
// cover hands out with an id) share the searches themselves: the
// optimistic one depends on the a-class only through its targets, so one
// closure per (seed group, cover) drops cells with an O(1) test
// (cellClosure), and one resumable first-visit forest per (seed group,
// cover, target class) finds the pessimistic paths of the cells that keep
// (cellForest). Two kinds of cell stay open: the one a cover without an id
// cannot reach (s2Plain — the removal takes nothing out of the reach, so the
// restricted search is the plain one) and the one the bracket cannot settle
// (s2PerPair). Each pair of an open cell pays one exact restricted search,
// denseRestrict. A restricted back-path is also a plain one
// (TestRemovedSetWithinPlainSet), so the plain question is never asked.
//
// Seed groups are independent units of work — each writes only the target
// rows of its own classes — so the workers claim a region's groups, each
// with its own mutable state over the shared read-only rows and tables.
func (e *classEngine) classSolve(members []int32) {
	rg := &e.rg
	for _, v := range members {
		graph.BitSet(rg.mask, int(v))
	}
	if e.anyConsidered(members) {
		e.group(members)
		parallelFor(len(rg.groups), workerCount(len(rg.groups)), func(wk, i int) {
			if e.workers[wk] == nil {
				e.workers[wk] = e.newWorker()
			}
			e.workers[wk].solve(&rg.groups[i])
		})
		for _, c := range rg.classIDs {
			rg.local[c] = -1
		}
		if classWorkHook != nil {
			var sum classWork
			for _, s := range e.workers {
				if s != nil {
					sum.add(s.work)
					s.work = classWork{}
				}
			}
			classWorkHook(sum)
		}
	}
	for _, v := range members {
		graph.BitClear(rg.mask, int(v))
	}
}

// classEngine is one sccCompute's class solver: what every worker reads —
// the graphs, the constraints, the region being solved — and the workers,
// whose state lives across regions.
type classEngine struct {
	ag      *ir.AccessGraph
	out     *Set
	ends    endpointMask
	gd      *mixedAdj
	cover   func(a, b int, scratch []uint64) ([]uint64, int)
	class   []int32 // access -> class id: gd.dir.ClassOf
	rg      classRegion
	cand    []uint64 // the region loop's candidate row
	workers []*classWorker
	// Every region's seed rows, masked to the region: rows of two regions
	// differ unless empty, and empty ones are never interned, so a region's
	// rows get the ids from seedBase on.
	seedRows graph.RowInterner
	seedBase int32
}

// classRegion is the region being solved: its member mask, its members
// grouped by class, and its classes grouped by seed row. Between regions
// the mask is empty and every local id is -1.
type classRegion struct {
	epoch    int32 // advances per region
	mask     []uint64
	local    []int32 // class id -> its index among the region's classes
	classIDs []int32 // the region's classes, in first-seen member order
	members  []int32 // the region's accesses, grouped by class
	start    []int32 // class k's accesses are members[start[k]:start[k+1]]
	groups   []seedGroup
	// The groups' seeds and classes live in these; groupOf maps a class
	// with a seed row to its group, seeded lists those classes.
	seeds, classes, groupStart, groupOf, seeded []int32
}

// seedGroup is the target classes of one region that share a seed row.
type seedGroup struct {
	seeds   []int32 // the seed row's accesses
	classes []int32 // the classes, as region indices
}

func newClassEngine(ag *ir.AccessGraph, out *Set, ends endpointMask, gd *mixedAdj,
	cover func(a, b int, scratch []uint64) ([]uint64, int)) *classEngine {

	n := len(gd.adj)
	w := graph.WordsFor(n)
	e := &classEngine{ag: ag, out: out, ends: ends, gd: gd, cover: cover, class: gd.dir.ClassOf,
		cand: make([]uint64, w), workers: make([]*classWorker, workerCount(n))}
	e.rg.mask = make([]uint64, w)
	e.rg.local = make([]int32, len(gd.dir.ClassRow))
	for i := range e.rg.local {
		e.rg.local[i] = -1
	}
	return e
}

// anyConsidered reports whether some target of the region has a considered
// source inside it: a region without one is skipped before anything is
// built for it.
func (e *classEngine) anyConsidered(members []int32) bool {
	mask := e.rg.mask
	for _, b := range members {
		if !candidateRow(e.ag, int(b), e.ends, e.cand) {
			continue
		}
		for i, c := range e.cand {
			if c&mask[i] != 0 {
				return true
			}
		}
	}
	return false
}

// group fills the region's class and seed-group tables. Classes are
// grouped by their localized seed-row content: the searches only depend on
// the seed row, so classes differing in guards, R class, or witness rows
// still share them. A class with an empty seed row has no usable conflict
// edge into the region, hence no pair to solve, and joins no group.
func (e *classEngine) group(members []int32) {
	rg := &e.rg
	rg.epoch++
	rg.classIDs = rg.classIDs[:0]
	for _, v := range members {
		if c := e.class[v]; rg.local[c] < 0 {
			rg.local[c] = int32(len(rg.classIDs))
			rg.classIDs = append(rg.classIDs, c)
		}
	}
	rg.start, rg.members = bucketSort(members, len(rg.classIDs),
		func(v int32) int32 { return rg.local[e.class[v]] }, rg.start, rg.members)

	rg.groups, rg.seeds = rg.groups[:0], rg.seeds[:0]
	rg.groupOf, rg.seeded = rg.groupOf[:0], rg.seeded[:0]
	buf := e.cand // free once anyConsidered is done with it
	for k := range rg.classIDs {
		drow := e.gd.dir.Row(int(rg.members[rg.start[k]]))
		empty := true
		for i := range buf {
			buf[i] = drow[i] & rg.mask[i]
			empty = empty && buf[i] == 0
		}
		rg.groupOf = append(rg.groupOf, -1)
		if empty {
			continue
		}
		id, fresh := e.seedRows.Intern(buf)
		if fresh {
			at := len(rg.seeds)
			for wi, word := range buf {
				for ; word != 0; word &= word - 1 {
					rg.seeds = append(rg.seeds, int32(wi<<6+bits.TrailingZeros64(word)))
				}
			}
			rg.groups = append(rg.groups, seedGroup{seeds: rg.seeds[at:len(rg.seeds):len(rg.seeds)]})
		}
		rg.groupOf[k] = id - e.seedBase
		rg.seeded = append(rg.seeded, int32(k))
	}
	e.seedBase += int32(len(rg.groups))
	rg.groupStart, rg.classes = bucketSort(rg.seeded, len(rg.groups),
		func(k int32) int32 { return rg.groupOf[k] }, rg.groupStart, rg.classes)
	for i := range rg.groups {
		rg.groups[i].classes = rg.classes[rg.groupStart[i]:rg.groupStart[i+1]]
	}
}

// bucketSort fills out with items ordered by key, keeping their order
// within a key, and start with the keys' bounds: key k's items are
// out[start[k]:start[k+1]]. Both reuse the storage passed in.
func bucketSort(items []int32, nk int, key func(int32) int32, start, out []int32) ([]int32, []int32) {
	start = append(start[:0], make([]int32, nk+1)...)
	for _, v := range items {
		start[key(v)+1]++
	}
	for k := 0; k < nk; k++ {
		start[k+1] += start[k]
	}
	out = append(out[:0], items...)
	for _, v := range items {
		k := key(v)
		out[start[k]] = v
		start[k]++
	}
	copy(start[1:], start[:nk])
	start[0] = 0
	return start, out
}

// classMembers returns the region's accesses of region class k.
func (rg *classRegion) classMembers(k int32) []int32 {
	return rg.members[rg.start[k]:rg.start[k+1]]
}

// classWorker is one worker's mutable state: the scratch rows, the per-class
// slots, the decided-cell masks, the shared searches and the work counts.
// The engine's rows and tables are only read. A group writes the target
// rows of its own classes and nothing else, and the state a slot carries
// from one group to the next (the class member mask) is a function of the
// class and the region alone, so which worker solves which group, and in
// what order, cannot change a bit of the result or a count of the work.
type classWorker struct {
	e                      *classEngine
	cand, cover, vis, teff []uint64
	queue                  []int32
	slots                  []aclsSlot // class id -> the a-class's slot
	// The current group's uncut reach, read by the cells of covers without
	// an id; valid while reachEp == gepoch.
	reach   []uint64
	reachEp int32
	none    []uint64 // an empty target row
	bG      []uint64 // region members of the current target class
	bGEp    int32
	// The a-classes whose removal cell against the current target class
	// is decided — kept whole, dropped whole — as source masks.
	keepG, dropG []uint64
	bepoch       int32 // advances per target class
	gepoch       int32 // advances per seed group
	closures     coverPool[cellClosure]
	forests      coverPool[cellForest]
	scans        rowScans // the closures' and restricted searches' shared rows
	work         classWork
}

func (e *classEngine) newWorker() *classWorker {
	w := len(e.rg.mask)
	row := func() []uint64 { return make([]uint64, w) }
	s := &classWorker{e: e, cand: row(), cover: row(), vis: row(), teff: row(),
		slots: make([]aclsSlot, len(e.rg.local)), reach: row(), none: row(),
		bG: row(), keepG: row(), dropG: row()}
	s.scans.n = &s.work.RowScans
	return s
}

// classMask returns the region members of a's class.
func (s *classWorker) classMask(st *aclsSlot, a int) []uint64 {
	rg := &s.e.rg
	if st.aEp != rg.epoch {
		st.aEp = rg.epoch
		if st.aG == nil {
			st.aG = make([]uint64, len(s.bG))
		} else {
			for i := range st.aG {
				st.aG[i] = 0
			}
		}
		for _, v := range rg.classMembers(rg.local[s.e.class[a]]) {
			graph.BitSet(st.aG, int(v))
		}
	}
	return st.aG
}

// targetMask returns the region members of target class k.
func (s *classWorker) targetMask(k int32) []uint64 {
	if s.bGEp != s.bepoch {
		s.bGEp = s.bepoch
		for i := range s.bG {
			s.bG[i] = 0
		}
		for _, v := range s.e.rg.classMembers(k) {
			graph.BitSet(s.bG, int(v))
		}
	}
	return s.bG
}

// sharedCell decides the cell of (a, gb) from the searches it shares with
// every cell of its cover id: the group's closure for that cover, then the
// target class's forest. Only a cell the forest leaves undecided runs
// cellRestrict, whose verdict it then is.
func (s *classWorker) sharedCell(st *aclsSlot, a, gb int, k int32, id int, covG []uint64, g *seedGroup) uint8 {
	e := s.e
	mask := e.rg.mask
	cl, fresh := s.closures.get(id, s.gepoch)
	if fresh {
		s.work.Closures++
		s.queue = cl.build(e.gd, mask, covG, g.seeds, s.vis, s.queue, &s.scans)
	}
	ta := e.gd.in(a)
	if !graph.BitGet(cl.s1, a) {
		// No uncovered witness is touched, so the pessimistic pass has no
		// target; the optimistic one has only the a-class's own witnesses,
		// which it accepts even when covered.
		for _, x := range e.rg.classMembers(e.rg.local[e.class[a]]) {
			if graph.BitGet(ta, int(x)) && graph.BitGet(cl.touched, int(x)) {
				return s2PerPair
			}
		}
		return s2Drop
	}
	aG, bG := s.classMask(st, a), s.targetMask(k)
	fr, fresh := s.forests.get(id, s.bepoch)
	if fresh {
		s.work.Forests++
		fr.start(e.gd, mask, covG, bG, g.seeds, &s.work.RowScans)
	}
	if fr.keeps(e.gd, mask, covG, ta, aG) {
		s.work.ForestKeeps++
		return s2Keep
	}
	s.work.Fallbacks++
	var s2 uint8
	s2, s.queue = cellRestrict(e.gd, mask, covG, ta, e.gd.dir.Row(gb), aG, bG, s.vis, s.teff, s.queue, &s.scans)
	return s2
}

// decideCell answers the removal question for the (a-class, target class)
// cell of the pair (a, gb), from data that is class-invariant on both sides
// — cover, conflict rows, witness rows — so the verdict holds for every pair
// of the cell. A cell whose cover has no id (built for its pair alone)
// reads the group's uncut reach: every search of the pair, with or without
// the removal, seeds from the target's conflict row and stays within that
// reach, so a cover the reach never touches removes nothing (s2Plain), and a
// cell none of whose surviving witnesses (outside the cover, or exempt as
// the a-class) is uncut-reachable drops outright. Then cellRestrict
// brackets it.
func (s *classWorker) decideCell(st *aclsSlot, a, gb int, k int32, g *seedGroup) uint8 {
	e := s.e
	mask := e.rg.mask
	drow := e.gd.dir.Row(gb)
	covG, id := e.cover(a, gb, s.cover)
	if id >= 0 {
		s2 := s.sharedCell(st, a, gb, k, id, covG, g)
		if sharedCellHook != nil {
			sharedCellHook(e.gd, mask, covG, e.gd.in(a), drow, s.classMask(st, a), s.targetMask(k), s2)
		}
		return s2
	}
	if s.reachEp != s.gepoch {
		s.reachEp = s.gepoch
		for i := range s.reach {
			s.reach[i] = ^mask[i]
		}
		restrictSweep(e.gd, drow, mask, s.reach, s.none, &s.queue, &s.scans)
		for i := range s.reach {
			s.reach[i] &= mask[i]
		}
	}
	if !graph.AndAny(covG, s.reach) {
		return s2Plain // no removable access reachable
	}
	aG := s.classMask(st, a)
	ta := e.gd.in(a)
	survReach := false
	for i, w := range s.reach {
		t := ta[i] & mask[i]
		if v := t&^covG[i] | t&aG[i]; v&w != 0 {
			survReach = true
			break
		}
	}
	if !survReach {
		return s2Drop
	}
	var s2 uint8
	s2, s.queue = cellRestrict(e.gd, mask, covG, ta, drow, aG, s.targetMask(k), s.vis, s.teff, s.queue, &s.scans)
	return s2
}

// solve answers every considered pair whose target is in one of g's
// classes.
func (s *classWorker) solve(g *seedGroup) {
	e := s.e
	mask := e.rg.mask
	s.gepoch++
	for _, k := range g.classes {
		s.bepoch++
		for i := range s.keepG {
			s.keepG[i], s.dropG[i] = 0, 0
		}
		for _, gb32 := range e.rg.classMembers(k) {
			gb := int(gb32)
			cand := s.cand
			if !candidateRow(e.ag, gb, e.ends, cand) {
				continue
			}
			// Whole rows first: a single conflict edge b -> a is a back-path
			// by itself, and a cell an earlier target of this class decided
			// holds for this target too — its sources are set or cleared
			// here and the per-pair loop below sees undecided cells only.
			row := e.out.byB.Row(gb)
			drow := e.gd.dir.Row(gb)
			rest := false
			for i := range cand {
				c := cand[i] & mask[i]
				kp := c & (drow[i] | s.keepG[i])
				row[i] |= kp
				c &^= kp | s.dropG[i]
				cand[i] = c
				if c != 0 {
					rest = true
				}
			}
			if !rest {
				continue
			}

			for wi, word := range cand {
				for ; word != 0; word &= word - 1 {
					a := wi<<6 + bits.TrailingZeros64(word)
					st := &s.slots[e.class[a]]
					s.work.Pairs++

					// The cell first: one that drops or keeps is the answer
					// for every pair in it.
					if st.e2 != s.bepoch {
						st.e2 = s.bepoch
						st.s2 = s.decideCell(st, a, gb, k, g)
						s.work.Cells++
						// The a-classes are small (at the 2k tier 361,554
						// pairs fall in 189,781 cells), so a decided cell
						// sets its members' bits rather than OR a class mask.
						var decided []uint64
						switch st.s2 {
						case s2Keep:
							s.work.BracketKeeps++
							decided = s.keepG
						case s2Drop:
							decided = s.dropG
						}
						if decided != nil {
							for _, v := range e.rg.classMembers(e.rg.local[e.class[a]]) {
								graph.BitSet(decided, int(v))
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
					s.work.PairSearches++
					covG, _ := e.cover(a, gb, s.cover)
					var hit bool
					s.queue, hit = denseRestrict(e.gd, mask, covG, e.gd.in(a), drow, a, gb, s.vis, s.teff, s.queue, &s.scans)
					if hit {
						s.work.PairHits++
						graph.BitSet(row, a)
					}
				}
			}
		}
	}
}

// classWork counts what the class solver did, in units that repeat exactly
// on any host and at any worker count — a seed group's work does not depend
// on which worker solves it: the pairs the per-pair loop visited (what the
// whole-row operations left), the removal cells decided and how many of
// them the bracket kept, and the restricted searches the open cells' pairs
// ran and how many of those found a back-path. Of the shared searches it
// counts the closures built (one per seed group and cover), the forests
// started (one per seed group, cover and target class), the cells a forest
// kept, and the cells a forest left to cellRestrict. RowScans counts the
// directed conflict rows those searches scanned (rowScans).
type classWork struct {
	Pairs, Cells, BracketKeeps, PairSearches, PairHits  int
	Closures, Forests, ForestKeeps, Fallbacks, RowScans int
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
	w.RowScans += o.RowScans
}

// classWorkHook, when a test sets it, receives the counts of each region
// classSolve solves, summed over its workers. It is nil outside tests — one
// nil check per region.
var classWorkHook func(classWork)

// sharedCellHook, when a test sets it, receives every cell the shared
// searches decide: what cellRestrict reads to bracket it, and the verdict.
// Workers call it concurrently. It is nil outside tests.
var sharedCellHook func(gd *mixedAdj, mask, cov, ta, drow, aG, bG []uint64, s2 uint8)

// aclsSlot is one worker's state for one a-class: its removal cell against
// the current target class (e2 ties the decision to the target class it was
// made for) and its member mask in the current region (aEp ties it to the
// region), built on first use and kept across seed groups.
type aclsSlot struct {
	e2, aEp int32
	s2      uint8    // cell decision
	aG      []uint64 // region members of this a-class
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
// such target is touched. It scans each shared conflict row once.
type cellClosure struct {
	// touched holds the seeds and every region successor of an expanded
	// node: the nodes a cell's optimistic search tests as targets.
	touched []uint64
	// s1 is the OR of the directed conflict rows of the expanded nodes —
	// the touched nodes outside the cover, and the covered seeds the
	// endpoint exemption may restart at — so a is in s1 whenever an
	// uncovered witness of a is touched.
	s1 []uint64
}

// build runs the closure of seeds under cov. vis, queue and rs are scratch.
func (c *cellClosure) build(gd *mixedAdj, mask, cov []uint64, seeds []int32, vis []uint64, queue []int32, rs *rowScans) []int32 {
	if c.touched == nil {
		c.touched = make([]uint64, len(mask))
		c.s1 = make([]uint64, len(mask))
	}
	for i := range vis {
		vis[i] = ^mask[i] | cov[i]
		c.touched[i], c.s1[i] = 0, 0
	}
	queue = queue[:0]
	rs.reset(gd)
	for _, s := range seeds {
		graph.BitSet(c.touched, int(s))
		// A seed with a usable self-conflict edge may be the target b
		// itself, which the walk restarts at even when the cover holds it
		// (an endpoint is never removed). Expanding every such seed
		// over-approximates that exemption, as the closure may.
		if !graph.BitGet(vis, int(s)) || graph.BitGet(gd.dir.Row(int(s)), int(s)) {
			graph.BitSet(vis, int(s))
			queue = append(queue, s)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		u := int(queue[qi])
		for wi, r := range rs.row(gd, u) {
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
	return queue
}

// cellForest is the pessimistic side shared by the cells of one (seed
// group, cover, target class): a first-visit BFS from the group's seeds
// with the cover, the target class and everything outside the region
// blocked, which records for each node it touches the expanded node that
// touched it first. The cell's pessimistic search blocks the a-class on
// top, so a touched uncovered witness of a whose first toucher's tree path
// avoids the a-class is a pessimistic hit. The BFS grows only while no
// cell's question is answered from what it has touched, and over all of
// its growth it scans each shared conflict row once (scans).
type cellForest struct {
	touched []uint64 // the seeds and every region successor of an expanded node
	vis     []uint64 // blocked or queued
	from    []int32  // node -> its first toucher, -1 for a seed; valid while touched
	queue   []int32  // queued nodes, global ids; queue[:next] are expanded
	next    int
	scans   rowScans // the shared rows this forest has scanned
}

// start resets the forest to its seeds under cov, with the target class bG
// blocked; the rows it scans are counted in scanned.
func (f *cellForest) start(gd *mixedAdj, mask, cov, bG []uint64, seeds []int32, scanned *int) {
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
	f.scans.n = scanned
	f.scans.reset(gd)
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
		for wi, r := range f.scans.row(gd, int(u)) {
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
func cellRestrict(gd *mixedAdj, mask, cov, ta, drow, aG, bG, vis, teff []uint64, queue []int32, rs *rowScans) (uint8, []int32) {
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
		if restrictSweep(gd, drow, mask, vis, teff, &queue, rs) {
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
		// Covered or not, b is an endpoint and the walk restarts there.
		for m := drow[wi] & bG[wi] & mask[wi]; m != 0; m &= m - 1 {
			b := wi<<6 + bits.TrailingZeros64(m)
			graph.BitSet(vis, b)
			queue = append(queue, int32(b))
		}
	}
	if restrictSweep(gd, drow, mask, vis, teff, &queue, rs) {
		return s2PerPair, queue
	}
	return s2Drop, queue
}

// restrictSweep runs the shared body of both cellRestrict passes and of
// denseRestrict: one seed step over the target's conflict row, then a
// masked BFS on the global mixed adjacency, scanning each shared conflict
// row once (rs) and accepting any teff target on generation. queue may
// arrive pre-seeded (the b-self continuation).
func restrictSweep(gd *mixedAdj, drow, mask, vis, teff []uint64, queue *[]int32, rs *rowScans) bool {
	q := *queue
	rs.reset(gd)
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
		row := rs.row(gd, u)
		for wi := range row {
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

// rowScans is one search's record of the shared conflict rows it has
// scanned. Once a class's row is scanned every bit of it is visited (and
// touched, and in s1) or the search has ended on it, so a second member's
// scan would change nothing: row hands it none. n counts the scans.
type rowScans struct {
	done []uint64 // physical row -> scanned by the current search
	n    *int
}

// reset starts a search.
func (rs *rowScans) reset(gd *mixedAdj) {
	rs.done = append(rs.done[:0], make([]uint64, graph.WordsFor(len(gd.dir.ClassRow)))...)
}

// row returns u's directed row when the current search has not scanned it
// yet, and nil when it has.
func (rs *rowScans) row(gd *mixedAdj, u int) []uint64 {
	c := int(gd.dir.ClassOf[u])
	if graph.BitGet(rs.done, c) {
		return nil
	}
	graph.BitSet(rs.done, c)
	*rs.n++
	return gd.dir.ClassRow[c]
}
