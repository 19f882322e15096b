package syncanal

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/delay"
	"repro/internal/graph"
)

// Steps 5 and 6 of section 5.1, on top of the lock guards of section 5.3
// and the barrier phases of section 5.2: orient the conflict edges by R,
// then detect back-paths among the data accesses in the oriented graph
// with the accesses R and mutual exclusion disqualify removed.

// orientedConstraints assembles step 6's query — D = D1 ∪ {[a, b] ∈ P :
// back-path in P ∪ C1} over the data–data pairs — and returns it with the
// memo behind its RemovedCover. The orientation travels as class-shared
// rows and columns over the access classing, the Removed predicate beside
// its exact cover, and Comp is the condensation of those same rows: the
// regions the engine solves are the strongly connected components of the
// graph it searches.
func (res *Result) orientedConstraints(lk *lockMasks, opts Options) (delay.Constraints, *coverMemo) {
	rows := res.orientationRows(res.accessClasses(lk))
	removed, covers := res.removal(lk)
	return delay.Constraints{
		Exact:        opts.Exact,
		Endpoints:    delay.EndpointFilter{IDs: syncIDs(res.Fn)},
		DirRows:      rows,
		Comp:         res.regionStats(rows),
		Removed:      removed,
		RemovedCover: covers.cover,
	}, covers
}

// lockMasks holds the guard sets of section 5.3 in the two orientations the
// removal predicate and its cover read: per access, the bitset of lock keys
// guarding it (so the shared-lock test on a triple is an AND of three
// words per 64 keys — it runs once per visited node of every restricted
// per-pair search), and per key, the bitset of accesses it guards.
type lockMasks struct {
	guards keySets
	rows   [][]uint64 // key id -> the accesses it guards; nil if none
	// set numbers the distinct guard sets: accesses with equal sets share
	// an id, which the access classes and the cover memo key on.
	set []int32
}

func newLockMasks(n int, guards keySets) *lockMasks {
	lk := &lockMasks{guards: guards, rows: make([][]uint64, guards.kw*64), set: make([]int32, n)}
	w := graph.WordsFor(n)
	var sets graph.RowInterner
	for x := 0; x < n; x++ {
		g := guards.row(x)
		lk.set[x], _ = sets.Intern(g)
		for wi, wd := range g {
			for ; wd != 0; wd &= wd - 1 {
				l := wi<<6 + bits.TrailingZeros64(wd)
				if lk.rows[l] == nil {
					lk.rows[l] = make([]uint64, w)
				}
				graph.BitSet(lk.rows[l], x)
			}
		}
	}
	return lk
}

// shareLock reports whether some lock guards all three accesses.
func (lk *lockMasks) shareLock(a, b, z int) bool {
	ga, gb, gz := lk.guards.row(a), lk.guards.row(b), lk.guards.row(z)
	for i := range ga {
		if ga[i]&gb[i]&gz[i] != 0 {
			return true
		}
	}
	return false
}

// orientationRows builds step 5 — C1 = C − {[a2, a1] : [a1, a2] ∈ R}: the
// direction x -> y is dropped exactly when [y, x] ∈ R — with the phase
// filter of section 5.2 on top: a data->data direction survives only
// co-phase. Row x is C(x, ·) &^ R(·, x), and a data access's row also drops
// the data accesses outside its co-phase row. C and the co-phase relation
// are symmetric, so column x, which the engine reads too, is C(x, ·) &^
// R(x, ·) under the same mask, built beside the row. Every input is
// constant on a class of accessClasses — the conflict row per conflict
// group, data or synchronization per its bit, R's row and column per R
// class, the co-phase row per co-phase class — so one row and one column
// per class, built from its first member, serve every member and no n x n
// matrix is ever materialized.
func (res *Result) orientationRows(class []int32) *graph.ClassRows {
	fn := res.Fn
	w := graph.WordsFor(len(fn.Accesses))
	dataMask := make([]uint64, w)
	for _, a := range fn.Accesses {
		if a.Kind.IsData() {
			graph.BitSet(dataMask, a.ID)
		}
	}
	var rows, cols [][]uint64
	for x, c := range class {
		if int(c) < len(rows) {
			continue // ids are first-seen, so x is not c's first member
		}
		row, col := make([]uint64, w), make([]uint64, w)
		cx, rcol, rrow := res.CS.Row(x), res.R.colOf(x), res.R.rowOf(x)
		for i := range row {
			row[i], col[i] = cx[i]&^rcol[i], cx[i]&^rrow[i]
		}
		if res.CoPhase != nil && fn.Accesses[x].Kind.IsData() {
			cr := res.CoPhase.Row(x)
			for i := range row {
				row[i] &= ^dataMask[i] | cr[i]
				col[i] &= ^dataMask[i] | cr[i]
			}
		}
		rows, cols = append(rows, row), append(cols, col)
	}
	return &graph.ClassRows{ClassOf: class, ClassRow: rows, ClassCol: cols}
}

// removal builds the node-removal predicate of step 6 and its exact bitset
// cover. Figure 6: a path to a is an execution where the path's accesses
// run before a; z with [a, z] ∈ R can never do that. Symmetrically a path
// from b is an execution where they run after b. Section 5.3: for a pair
// guarded by the same lock, other accesses guarded by that lock cannot
// appear in the violation sequence.
//
// The cover is exact — R.Row(a) covers the R.Has(a, z) arm, the transposed
// row covers R.Has(z, b), and per-lock access masks cover the shared-lock
// triple — which lets the delay engine fold it straight into
// restricted-search visited sets; a search whose visited set misses the
// cover is identical to the unrestricted one.
func (res *Result) removal(lk *lockMasks) (removed func(a, b, z int) bool, covers *coverMemo) {
	removed = func(a, b, z int) bool {
		return res.R.has(a, z) || res.R.has(z, b) || lk.shareLock(a, b, z)
	}
	return removed, newCoverMemo(res, lk)
}

// coverMemo hands out the removal covers. A cover depends on its pair only
// through a's R class, b's R class and the locks guarding both, so one row
// per such triple serves every pair: at acc2048 the oriented pass asks for
// 189,934 covers (189,781 decided cells and 153 open pairs) and the memo
// builds 206 rows. Every pair is handed the memo's row itself, shared and
// never written after it is built, and its number (id), which the class
// solver keys its shared searches on. A memo that declines the table builds
// each cover afresh into the caller's scratch, under id -1.
type coverMemo struct {
	res *Result
	lk  *lockMasks
	// key numbers the (R class, guard set) combinations of the accesses;
	// slots[key[a]*nkey+key[b]] points at the cover of every pair with that
	// key pair once one of them has asked. Nil when there are more slots
	// than 64 per access: the table would then outweigh an access row
	// each, and the rows it saves with it.
	key   []int32
	nkey  int
	slots []atomic.Pointer[memoCover]
	// A slot's first reader fills it under mu, from rows: the built covers
	// by (R class of a, R class of b, id of the shared guard set).
	mu     sync.Mutex
	rows   map[[3]int32]*memoCover
	shared graph.RowInterner
}

// memoCover is one built cover and its id, the order it was built in.
type memoCover struct {
	row []uint64
	id  int
}

func newCoverMemo(res *Result, lk *lockMasks) *coverMemo {
	m := &coverMemo{res: res, lk: lk}
	ids := make(map[[2]int32]int32)
	key := make([]int32, len(lk.set))
	for x, gs := range lk.set {
		k := [2]int32{res.R.classOf[x], gs}
		id, ok := ids[k]
		if !ok {
			id = int32(len(ids))
			ids[k] = id
		}
		key[x] = id
	}
	if len(ids)*len(ids) > 64*len(key) {
		return m
	}
	m.key, m.nkey = key, len(ids)
	m.slots = make([]atomic.Pointer[memoCover], m.nkey*m.nkey)
	m.rows = make(map[[3]int32]*memoCover)
	return m
}

// cover is the Constraints.RemovedCover of the oriented pass.
func (m *coverMemo) cover(a, b int, scratch []uint64) ([]uint64, int) {
	if m.key == nil {
		return m.build(a, b, scratch), -1
	}
	c := m.slot(a, b)
	return c.row, c.id
}

// slot returns the shared cover of (a, b), building it on first ask.
func (m *coverMemo) slot(a, b int) *memoCover {
	slot := &m.slots[int(m.key[a])*m.nkey+int(m.key[b])]
	if c := slot.Load(); c != nil {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c := slot.Load(); c != nil {
		return c
	}
	ga, gb := m.lk.guards.row(a), m.lk.guards.row(b)
	sh := make([]uint64, len(ga))
	for i := range sh {
		sh[i] = ga[i] & gb[i]
	}
	sid, _ := m.shared.Intern(sh)
	k := [3]int32{m.res.R.classOf[a], m.res.R.classOf[b], sid}
	c, ok := m.rows[k]
	if !ok {
		c = &memoCover{row: m.build(a, b, make([]uint64, graph.WordsFor(len(m.key)))), id: len(m.rows)}
		m.rows[k] = c
	}
	slot.Store(c)
	return c
}

// build writes the cover of (a, b) into dst and returns it.
func (m *coverMemo) build(a, b int, dst []uint64) []uint64 {
	ra, rb := m.res.R.rowOf(a), m.res.R.colOf(b)
	for i := range dst {
		dst[i] = ra[i] | rb[i]
	}
	ga, gb := m.lk.guards.row(a), m.lk.guards.row(b)
	for wi := range ga {
		for s := ga[wi] & gb[wi]; s != 0; s &= s - 1 {
			for i, wd := range m.lk.rows[wi<<6+bits.TrailingZeros64(s)] {
				dst[i] |= wd
			}
		}
	}
	return dst
}

// regionWorkHook, when a test sets it, receives the number of edges each
// region condensation visited.
var regionWorkHook func(edges int)

// regionStats records the strongly-connected-component decomposition of the
// oriented mixed graph — the partition the delay engine solves component by
// component — into res.Regions and res.LargestRegion, and returns it. The
// condensation walks the orientation rows one physical row per class.
func (res *Result) regionStats(rows *graph.ClassRows) *graph.Condensation {
	cond := graph.CondenseMixed(res.AG.Succ, rows)
	res.Regions = cond.NComp
	for _, m := range cond.Members {
		res.LargestRegion = max(res.LargestRegion, len(m))
	}
	if regionWorkHook != nil {
		regionWorkHook(cond.Edges)
	}
	return cond
}
