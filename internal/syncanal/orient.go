package syncanal

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/delay"
	"repro/internal/graph"
)

// Steps 5 and 6 of section 5.1, on top of the lock guards of section 5.3
// and the barrier phases of section 5.2: orient the conflict edges by R,
// then detect back-paths among the data accesses in the oriented graph
// with the accesses R and mutual exclusion disqualify removed.

// orientAndDetect runs the phases after R is available. The paper's two
// oriented passes collapse to one: a pair involving a synchronization
// access is oriented-and-removed in a strict edge-subgraph of D1's instance
// (orientation only drops directed conflict edges, removal only excludes
// interior nodes, and the endpoint filter is identical), so every
// sync-involving oriented delay is already in D1 and the sync pass
// contributes nothing to the union — TestOrientedSyncSubsetOfD1 holds the
// engine and its oracle to that containment. Only the data-data pass (phase
// filter on top of orientation) can produce pairs outside D1.
func (res *Result) orientAndDetect(opts Options, syncIDs []int, src *graph.BitMatrix) {
	lk := res.guardsAndPhases(opts, src)
	t0 := time.Now()
	con, _ := res.orientedConstraints(lk, opts, syncIDs)
	res.D = res.D1.Union(delay.Compute(res.AG, res.CS, con))
	res.Timing.Orient = time.Since(t0) - res.Timing.Regions
}

// guardsAndPhases computes the lock guards of section 5.3 (into res.Guards,
// returned as masks) and the barrier phases of section 5.2 (res.CoPhase),
// the inputs step 6 reads besides R. src is D1 in A-major form.
func (res *Result) guardsAndPhases(opts Options, src *graph.BitMatrix) *lockMasks {
	t0 := time.Now()
	n := len(res.Fn.Accesses)
	keys, guards := lockKeys{}, newKeySets(n, 0)
	if !opts.NoLocks {
		keys, guards = computeGuards(res, src)
	}
	lk := newLockMasks(n, guards)
	res.Guards = guards.byAccess(keys)
	res.Timing.Guards = time.Since(t0)

	t0 = time.Now()
	if opts.NoBarrier {
		res.CoPhase = nil
	} else {
		res.CoPhase = buildCoPhase(res.Fn, res.AG)
	}
	res.Timing.CoPhase = time.Since(t0)
	return lk
}

// orientedConstraints assembles step 6's query — D = D1 ∪ {[a, b] ∈ P :
// back-path in P ∪ C1} over the data–data pairs — and returns it with the
// memo behind its RemovedCover. The orientation travels as rows only; the
// Removed predicate travels beside its exact cover. Comp shares the region statistics' condensation,
// the orient graph's SCCs over the accesses (its class nodes are routing
// only and dropped): the phased graph is an edge-subgraph of the orient
// graph, so the orient SCCs are closed under phased edges.
func (res *Result) orientedConstraints(lk *lockMasks, opts Options, syncIDs []int) (delay.Constraints, *coverMemo) {
	// Class partitions for the oriented pass, computed before the
	// orientation rows so those can be built in class coordinates.
	classBase, classPhased := res.accessClasses(lk)
	orientRows, phasedRows := res.orientationRows(classBase, classPhased)
	removed, covers := res.removal(lk)
	cond := res.regionStats(orientRows)
	return delay.Constraints{
		Endpoints:    delay.EndpointFilter{IDs: syncIDs},
		DirRows:      phasedRows,
		Comp:         cond,
		Removed:      removed,
		RemovedCover: covers.cover,
		AccessClass:  classPhased,
		Exact:        opts.Exact,
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
// direction x -> y is dropped exactly when [y, x] ∈ R — as rows for the
// delay engine. orient[x] = C(x, ·) &^ R(·, x); phased additionally masks
// the co-phase row into data rows (section 5.2: a data->data conflict
// direction survives only co-phase). Both inputs are class-shared — the conflict
// row per similarity group, the R column row per R class — so given the
// class partitions one physical row per class serves every member and no
// per-access n x n matrix is ever materialized.
func (res *Result) orientationRows(classBase, classPhased []int32) (orient, phased graph.Rows) {
	fn := res.Fn
	n := len(fn.Accesses)
	w := graph.WordsFor(n)
	dataMask := make([]uint64, w)
	for _, a := range fn.Accesses {
		if a.Kind.IsData() {
			graph.BitSet(dataMask, a.ID)
		}
	}
	orientRow := func(x int, ox []uint64) {
		cx, rx := res.CS.Row(x), res.R.colOf(x)
		for i := range ox {
			ox[i] = cx[i] &^ rx[i]
		}
	}
	// phasedRow derives x's phased row from its orientation row.
	phasedRow := func(x int, px, ox []uint64) {
		copy(px, ox)
		if fn.Accesses[x].Kind.IsData() {
			cr := res.CoPhase.Row(x)
			for i := range px {
				px[i] &= ^dataMask[i] | cr[i]
			}
		}
	}
	// classRows builds one row per class from its first member.
	classRows := func(classOf []int32, build func(x int, row []uint64)) [][]uint64 {
		var rows [][]uint64
		for x, c := range classOf {
			for int(c) >= len(rows) {
				rows = append(rows, nil)
			}
			if rows[c] == nil {
				rows[c] = make([]uint64, w)
				build(x, rows[c])
			}
		}
		return rows
	}
	baseRows := classRows(classBase, orientRow)
	orient = graph.NewClassRows(classBase, baseRows, n)
	if res.CoPhase == nil {
		return orient, orient
	}
	phRows := classRows(classPhased, func(x int, row []uint64) {
		phasedRow(x, row, baseRows[classBase[x]]) // phased refines base
	})
	return orient, graph.NewClassRows(classPhased, phRows, n)
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
// 185,039 cells' covers and the memo builds a few dozen rows. Every pair is
// handed the memo's row itself, shared and never written after it is
// built, and its number (id), which the class solver keys its shared
// searches on. A memo that declines the table builds each cover afresh
// into the caller's scratch, under id -1.
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
// condensation walks the orient rows one physical row per class.
func (res *Result) regionStats(orientRows graph.Rows) *graph.Condensation {
	t0 := time.Now()
	cond := graph.CondenseMixed(res.AG.Succ, orientRows)
	res.Regions = cond.NComp
	for _, m := range cond.Members {
		res.LargestRegion = max(res.LargestRegion, len(m))
	}
	if regionWorkHook != nil {
		regionWorkHook(cond.Edges)
	}
	res.Timing.Regions = time.Since(t0)
	return cond
}
