package syncanal

import (
	"math/bits"
	"sort"
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
func (res *Result) orientAndDetect(opts Options, syncIDs []int) {
	t0 := time.Now()
	if !opts.NoLocks {
		res.Guards = computeGuards(res)
	} else {
		res.Guards = map[int]map[string]bool{}
	}
	res.Timing.Guards = time.Since(t0)

	t0 = time.Now()
	if opts.NoBarrier {
		res.CoPhase = nil
	} else {
		res.CoPhase = buildCoPhase(res.Fn, res.AG)
	}
	res.Timing.CoPhase = time.Since(t0)

	t0 = time.Now()
	lk := newLockMasks(res.Guards, len(res.Fn.Accesses))

	// Class partitions for the oriented pass, computed before the
	// orientation rows so those can be built in class coordinates. Nil
	// under the per-access oracle backing (and for >64 distinct locks),
	// where the engine gets materialized per-access rows instead.
	var classBase, classPhased []int32
	if res.R.cp != nil {
		classBase, classPhased = res.accessClasses(lk.bits)
	}
	orientRows, phasedRows := res.orientationRows(classBase, classPhased)
	removed, cover := res.removal(lk)
	cond := res.regionStats(orientRows)

	// Step 6: D = D1 ∪ {[a, b] ∈ P : back-path in P ∪ C1}. The closure
	// forms stay on the Constraints so the per-pair reference oracle
	// re-derives every answer independently of the precomputed rows. Comp
	// shares the condensation computed for the region statistics: the
	// phased graph is an edge-subgraph of the orient graph, so the orient
	// SCCs are closed under phased edges.
	dataPairs := delay.Compute(res.AG, res.CS, delay.Constraints{
		SkipEndpoints: syncIDs,
		ConflictDir:   res.phasedDir,
		DirRows:       phasedRows,
		Comp:          cond,
		Removed:       removed,
		RemovedCover:  cover,
		RemovedExact:  true,
		AccessClass:   classPhased,
		Exact:         opts.Exact,
		Reference:     opts.Reference,
	})
	res.D = res.D1.Union(dataPairs)
	res.Timing.Orient = time.Since(t0)
}

// lockMasks holds the guard sets of section 5.3 as bitsets, so the
// shared-lock test on a triple is one AND of three words instead of three
// map lookups plus an iteration — it runs once per visited node of every
// restricted per-pair search.
type lockMasks struct {
	guards map[int]map[string]bool
	// bits[x] has bit l set iff lock l guards access x. Nil with more than
	// 64 distinct locks, where the map form answers instead.
	bits []uint64
	// rows[l] is the access bitset lock l guards (by bit when bits is set),
	// byName the same by lock key.
	rows   [][]uint64
	byName map[string][]uint64
}

func newLockMasks(guards map[int]map[string]bool, n int) *lockMasks {
	lk := &lockMasks{guards: guards, byName: make(map[string][]uint64)}
	w := graph.WordsFor(n)
	for id, ls := range guards {
		for l := range ls {
			m := lk.byName[l]
			if m == nil {
				m = make([]uint64, w)
				lk.byName[l] = m
			}
			graph.BitSet(m, id)
		}
	}
	if len(lk.byName) > 64 {
		return lk
	}
	// Deterministic bit assignment (sorted names), so guard masks are the
	// same on every run.
	names := make([]string, 0, len(lk.byName))
	for l := range lk.byName {
		names = append(names, l)
	}
	sort.Strings(names)
	lk.bits = make([]uint64, n)
	lk.rows = make([][]uint64, len(names))
	for bit, l := range names {
		lk.rows[bit] = lk.byName[l]
		for wi, wd := range lk.rows[bit] {
			for ; wd != 0; wd &= wd - 1 {
				lk.bits[wi<<6+bits.TrailingZeros64(wd)] |= 1 << bit
			}
		}
	}
	return lk
}

// phasedDir is step 5 — C1 = C − {[a2, a1] : [a1, a2] ∈ R}: the direction
// x -> y is dropped exactly when [y, x] ∈ R — with the phase filter of
// section 5.2 on top: a data->data conflict direction survives only
// co-phase.
func (res *Result) phasedDir(x, y int) bool {
	acc := res.Fn.Accesses
	if res.CoPhase != nil && acc[x].Kind.IsData() && acc[y].Kind.IsData() && !res.CoPhase.Has(x, y) {
		return false
	}
	return !res.R.Has(y, x)
}

// orientationRows builds the bit-parallel form of step 5 for the delay
// engine. orient[x] = C(x, ·) &^ R(·, x); phased additionally masks the
// co-phase row into data rows. Both inputs are class-shared — the conflict
// row per similarity group, the R column row per R class — so given the
// class partitions one physical row per class serves every member and no
// per-access n x n matrix is ever materialized; without them (the
// per-access oracle backing) the rows are bit matrices.
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
		cx, rx := res.CS.Row(x), res.R.ColRow(x)
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
	if classBase == nil {
		om := graph.NewBitMatrix(n)
		for x := 0; x < n; x++ {
			orientRow(x, om.Row(x))
		}
		if res.CoPhase == nil {
			return om, om
		}
		pm := graph.NewBitMatrix(n)
		for x := 0; x < n; x++ {
			phasedRow(x, pm.Row(x), om.Row(x))
		}
		return om, pm
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
func (res *Result) removal(lk *lockMasks) (removed func(a, b, z int) bool, cover func(a, b int, scratch []uint64) []uint64) {
	removed = func(a, b, z int) bool {
		if res.R.Has(a, z) || res.R.Has(z, b) {
			return true
		}
		if lk.bits != nil {
			return lk.bits[a]&lk.bits[b]&lk.bits[z] != 0
		}
		ga, gb, gz := lk.guards[a], lk.guards[b], lk.guards[z]
		for l := range ga {
			if gb[l] && gz[l] {
				return true
			}
		}
		return false
	}
	cover = func(a, b int, scratch []uint64) []uint64 {
		ra, rb := res.R.Row(a), res.R.ColRow(b)
		for i := range scratch {
			scratch[i] = ra[i] | rb[i]
		}
		or := func(row []uint64) {
			for i, wd := range row {
				scratch[i] |= wd
			}
		}
		if lk.bits != nil {
			for m := lk.bits[a] & lk.bits[b]; m != 0; m &= m - 1 {
				or(lk.rows[bits.TrailingZeros64(m)])
			}
			return scratch
		}
		ga, gb := lk.guards[a], lk.guards[b]
		for l := range ga {
			if gb[l] {
				or(lk.byName[l])
			}
		}
		return scratch
	}
	return removed, cover
}

// regionStats records the strongly-connected-component decomposition of the
// oriented mixed graph — the partition the delay engine solves component by
// component — into res.Regions and res.LargestRegion, and returns it.
func (res *Result) regionStats(orientRows graph.Rows) *graph.Condensation {
	mixed := func(u int, visit func(v int32)) {
		for _, v := range res.AG.G.Adj[u] {
			visit(int32(v))
		}
		for wi, wd := range orientRows.Row(u) {
			for ; wd != 0; wd &= wd - 1 {
				visit(int32(wi<<6 + bits.TrailingZeros64(wd)))
			}
		}
	}
	cond := graph.Condense(len(res.Fn.Accesses), mixed)
	res.Regions = cond.NComp
	for _, m := range cond.Members {
		if len(m) > res.LargestRegion {
			res.LargestRegion = len(m)
		}
	}
	return cond
}
