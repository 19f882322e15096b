package syncanal

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/conflict"
	"repro/internal/delay"
	"repro/internal/graph"
	"repro/internal/ir"
)

// The analysis' differential oracles. analyzeOracle runs the six steps with
// R on one n-bit row per access (perAccessR) instead of the class-condensed
// Precedence, builds step 6's query from that relation pair by pair — no R
// classes, no access classes, no cover memo — and answers every back-path
// query on the engine it is given: delay.ComputeReference, the per-pair
// search, or delay.Compute.

// query is a back-path engine: delay.Compute or delay.ComputeReference.
type query func(*ir.AccessGraph, *conflict.Set, delay.Constraints) *delay.Set

// oracleResult is what analyzeOracle computed.
type oracleResult struct {
	Baseline, D1, D *delay.Set
	// R is the precedence relation, one row per access.
	R *graph.BitMatrix
	// dirCalls counts the oriented query's ConflictDir calls. The per-pair
	// engine makes one for every conflict edge it considers; delay.Compute
	// reads DirRows and makes none.
	dirCalls atomic.Int64
}

// analyzeOracle runs Analyze's steps on the oracles, every back-path query
// on q.
func analyzeOracle(fn *ir.Fn, opts Options, q query) *oracleResult {
	res := Prepare(fn)
	keep, rest := d1Queries(fn, opts)
	o := &oracleResult{D1: q(res.AG, res.CS, keep)}
	o.Baseline = o.D1.Union(q(res.AG, res.CS, rest))
	res.D1 = o.D1
	src := o.D1.SourceMatrix()
	o.R = perAccessR(res, opts, src)
	con := perAccessQuery(res, o.R, res.guardsAndPhases(opts, src), opts)
	dir := con.ConflictDir
	con.ConflictDir = func(x, y int) bool {
		o.dirCalls.Add(1)
		return dir(x, y)
	}
	o.D = o.D1.Union(q(res.AG, res.CS, con))
	return o
}

// perAccessR computes R with one row per access: the seeds and the
// dominator filters Precedence.refine starts from, the dominator rule applied as it
// reads — for each producer a1, u is the union of the R rows of its b1's,
// every b2 some b1 precedes, and a1 then precedes every consumer of every
// such b2 — and the closure over the access graph, to the fixpoint. Rows
// grow in place during a scan, which a monotone fixpoint tolerates. The
// closure costs O(n^2*n/64) where the class-condensed one costs
// O(c^2*c/64), which is why it is only the oracle. src is D1 in A-major
// form.
func perAccessR(res *Result, opts Options, src *graph.BitMatrix) *graph.BitMatrix {
	n := len(res.Fn.Accesses)
	rel := graph.NewBitMatrix(n)
	seedPrecedence(res.Fn, opts, func(A, B []int32) {
		for _, a := range A {
			for _, b := range B {
				rel.Set(int(a), int(b))
			}
		}
	})
	ps, cs := res.dominatorFilters(src)
	pst := ps.Transpose() // pst.Row(a1) = {b1 : a1 ∈ PS.Row(b1)}
	u := make([]uint64, rel.W)
	for {
		closeRel(rel)
		added := false
		for a1 := 0; a1 < n; a1++ {
			clear(u)
			for wi, wd := range pst.Row(a1) {
				for ; wd != 0; wd &= wd - 1 {
					orRow(u, rel.Row(wi<<6+bits.TrailingZeros64(wd)))
				}
			}
			row := rel.Row(a1)
			for wi, wd := range u {
				for ; wd != 0; wd &= wd - 1 {
					if orRow(row, cs.Row(wi<<6+bits.TrailingZeros64(wd))) {
						added = true
					}
				}
			}
		}
		// A scan of the closed relation that adds nothing: the fixpoint.
		if !added {
			return rel
		}
	}
}

// closeRel closes rel under transitivity: length->=1 reachability over its
// edges, by Tarjan condensation and one reverse-topological row-OR pass.
func closeRel(rel *graph.BitMatrix) {
	iter := func(u int, visit func(v int32)) {
		for wi, wd := range rel.Row(u) {
			for ; wd != 0; wd &= wd - 1 {
				visit(int32(wi<<6 + bits.TrailingZeros64(wd)))
			}
		}
	}
	closed := graph.Condense(rel.N, iter).ReachRows(rel.N, iter)
	for i := 0; i < rel.N; i++ {
		copy(rel.Row(i), closed.Row(i))
	}
}

// perAccessQuery builds step 6's query from the per-access relation rel,
// each definition read pair by pair: C1 and the co-phase filter (steps 5
// and 5.2) and the removal of Figure 6 and section 5.3, with its cover
// built from rel's rows and columns and the guarded accesses of every lock
// a and b share. The orientation rows are bit matrices, the covers are
// built afresh under id -1, and there is no AccessClass.
func perAccessQuery(res *Result, rel *graph.BitMatrix, lk *lockMasks, opts Options) delay.Constraints {
	fn := res.Fn
	n := len(fn.Accesses)
	dir := func(x, y int) bool {
		if res.CoPhase != nil && fn.Accesses[x].Kind.IsData() && fn.Accesses[y].Kind.IsData() && !graph.BitGet(res.CoPhase.Row(x), y) {
			return false
		}
		return !rel.Has(y, x)
	}
	orient, phased := graph.NewBitMatrix(n), graph.NewBitMatrix(n)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if !res.CS.Conflicts(x, y) {
				continue
			}
			if !rel.Has(y, x) {
				orient.Set(x, y)
			}
			if dir(x, y) {
				phased.Set(x, y)
			}
		}
	}
	relT := rel.Transpose()
	return delay.Constraints{
		Endpoints:   delay.EndpointFilter{IDs: syncIDs(fn)},
		ConflictDir: dir,
		DirRows:     phased,
		Comp:        res.regionStats(orient),
		Removed: func(a, b, z int) bool {
			return rel.Has(a, z) || rel.Has(z, b) || lk.shareLock(a, b, z)
		},
		RemovedCover: func(a, b int, dst []uint64) ([]uint64, int) {
			ra, rb := rel.Row(a), relT.Row(b)
			for i := range dst {
				dst[i] = ra[i] | rb[i]
			}
			for k, row := range lk.rows {
				if row != nil && graph.BitGet(lk.guards.row(a), k) && graph.BitGet(lk.guards.row(b), k) {
					orRow(dst, row)
				}
			}
			return dst, -1
		},
		Exact: opts.Exact,
	}
}
