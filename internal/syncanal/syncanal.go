// Package syncanal implements the paper's core contribution (section 5):
// sharpening the Shasha–Snir delay set with synchronization information
// from post/wait events, barriers, and locks.
//
// The algorithm is the six-step refinement of section 5.1:
//
//  1. Compute the dominator tree.
//  2. Compute the initial delay set D1 by restricting back-path detection
//     to pairs that include one synchronization access.
//  3. Seed the precedence relation R with matching post->wait pairs (and a
//     reflexive edge for each barrier: operations before a barrier episode
//     precede operations after it on every processor).
//  4. Close R under the dominator rule: [a1, a2] joins R when there are
//     b1, b2 with a1 dom b1, b2 dom a2, [a1,b1] ∈ D1, [b2,a2] ∈ D1 and
//     [b1,b2] ∈ R; and under transitivity.
//  5. Orient the conflict edges ordered by R: C1 = C − {[a2,a1] : [a1,a2] ∈ R}.
//  6. D = D1 ∪ {[a,b] ∈ P : back-path in P ∪ C1}, where the back-path
//     search also removes accesses disqualified by R (Figure 6) and by
//     common-lock guarding (section 5.3).
package syncanal

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"time"

	"repro/internal/conflict"
	"repro/internal/delay"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/sem"
)

// Options configures the analysis.
type Options struct {
	// Exact uses the exponential simple-path search in back-path detection.
	Exact bool
	// NoPostWait, NoBarrier, NoLocks disable individual refinements
	// (for ablation studies).
	NoPostWait bool
	NoBarrier  bool
	NoLocks    bool
	// Reference routes every back-path search through the per-pair oracle
	// (see delay.Constraints.Reference); used by the differential tests.
	Reference bool
	// PerAccessR stores the precedence relation with one bitset row per
	// access instead of the default class-condensed partition. It is the
	// retained differential oracle for the condensed representation (the
	// same pattern as Reference for the delay engine), not a
	// performance option: the per-access closure is O(n^2*n/64) where the
	// condensed one is O(c^2*c/64).
	PerAccessR bool

	// regionCache, when set (by Incremental), memoizes per-region results
	// of the directed delay computations across Analyze calls.
	regionCache *delay.RegionCache
	// precCache, when set (by Incremental), carries the class partition of
	// the previous edit's R so an unchanged precedence input skips the
	// seed + refine fixpoint entirely.
	precCache *precedenceCache
	// matCache, when set (by Incremental), carries the baseline and D1
	// matrices of the previous edit so unchanged structural inputs skip
	// the two whole-program back-path computations.
	matCache *matrixCache
}

// Precedence is the relation R: Has(a, b) means access a is guaranteed to
// complete before access b is initiated, in every execution, whenever the
// two dynamic instances are "aligned" by the synchronization structure.
//
// Two backings implement it. The default is the class-condensed partition
// of classes.go: one bitset row per R-equivalence class plus membership
// vectors, with expanded per-access rows materialized lazily for the
// consumers that want bitsets. NewPrecedence builds the retained
// per-access form (one n-bit row per access) — the differential oracle,
// selected by Options.PerAccessR. Both answer Has/Row/Size identically.
type Precedence struct {
	n   int
	rel *graph.BitMatrix // per-access backing (oracle mode)
	rt  *graph.BitMatrix // lazy transpose of rel, for ColRow
	cp  *classPartition  // class-condensed backing (default mode)
}

// NewPrecedence returns an empty per-access relation over n accesses.
func NewPrecedence(n int) *Precedence {
	return &Precedence{n: n, rel: graph.NewBitMatrix(n)}
}

// newClassPrecedence returns an empty class-condensed relation: one
// universal class, refined on demand as rectangles are added.
func newClassPrecedence(n int) *Precedence {
	return &Precedence{n: n, cp: newClassPartition(n)}
}

// Has reports whether [a, b] is in R.
func (r *Precedence) Has(a, b int) bool {
	if r.cp != nil {
		return r.cp.has(a, b)
	}
	return r.rel.Has(a, b)
}

// Add inserts [a, b]; it reports whether the edge was new.
func (r *Precedence) Add(a, b int) bool {
	if r.cp != nil {
		return r.cp.addRect([]int32{int32(a)}, []int32{int32(b)})
	}
	if r.rel.Has(a, b) {
		return false
	}
	r.rel.Set(a, b)
	r.rt = nil
	return true
}

// addRect inserts the rectangle A x B; it reports whether any pair was new.
// On the class backing this is the native operation; the per-access oracle
// expands it pair by pair.
func (r *Precedence) addRect(A, B []int32) bool {
	if r.cp != nil {
		return r.cp.addRect(A, B)
	}
	changed := false
	for _, a := range A {
		for _, b := range B {
			if r.Add(int(a), int(b)) {
				changed = true
			}
		}
	}
	return changed
}

// Size returns the number of edges.
func (r *Precedence) Size() int {
	if r.cp != nil {
		return r.cp.pairCount()
	}
	return r.rel.Count()
}

// Row returns a's successor row as a shared bitset; callers must not
// modify it.
func (r *Precedence) Row(a int) []uint64 {
	if r.cp != nil {
		return r.cp.rowOf(a)
	}
	return r.rel.Row(a)
}

// ColRow returns b's predecessor row {a : Has(a, b)} as a shared bitset;
// callers must not modify it. The class backing keeps expanded columns
// alongside expanded rows; the per-access backing transposes lazily.
func (r *Precedence) ColRow(b int) []uint64 {
	if r.cp != nil {
		return r.cp.colOf(b)
	}
	if r.rt == nil {
		r.rt = r.rel.Transpose()
	}
	return r.rt.Row(b)
}

// Classes returns the number of R-equivalence classes of the condensed
// backing, or 0 for the per-access oracle (which never condenses).
func (r *Precedence) Classes() int {
	if r.cp != nil {
		return r.cp.nc
	}
	return 0
}

// ClassSplits returns how many class splits refinement forced.
func (r *Precedence) ClassSplits() int {
	if r.cp != nil {
		return r.cp.splits
	}
	return 0
}

// ClassOf returns a's class id under the condensed backing, or -1.
func (r *Precedence) ClassOf(a int) int32 {
	if r.cp != nil {
		return r.cp.classOf[a]
	}
	return -1
}

// transClose closes R under transitivity; reports change. The closure is
// computed as length->=1 reachability over the current edge set: Tarjan
// condensation followed by one reverse-topological row-OR pass over the
// DAG (graph.ReachRows). On the per-access backing that costs O(E +
// E_dag*n/64) word operations; the class backing runs the same pass over
// c x c class rows instead, which is what takes the 8k-access closure from
// tens of seconds to milliseconds.
func (r *Precedence) transClose() bool {
	if r.cp != nil {
		return r.cp.transClose()
	}
	iter := func(u int, visit func(v int32)) {
		for wi, wd := range r.rel.Row(u) {
			for wd != 0 {
				visit(int32(wi<<6 + bits.TrailingZeros64(wd)))
				wd &= wd - 1
			}
		}
	}
	closed := graph.Condense(r.n, iter).ReachRows(r.n, iter)
	changed := false
	for i := 0; i < r.n; i++ {
		old, now := r.rel.Row(i), closed.Row(i)
		for w := range old {
			if now[w] != old[w] {
				changed = true
			}
		}
		// The closure is a superset of the edge set, so copying is sound
		// even on unchanged rows.
		copy(old, now)
	}
	if changed {
		r.rt = nil
	}
	return changed
}

// Timing records the wall time of each analysis sub-phase, so drivers (and
// the pass pipeline's `sync-analysis` stage) can report where analysis time
// goes without re-instrumenting the algorithm.
type Timing struct {
	// Prepare covers the shared inputs: access graph, conflict set,
	// dominator and postdominator trees.
	Prepare time.Duration
	// Baseline is the plain Shasha–Snir delay-set computation.
	Baseline time.Duration
	// D1 is the synchronization-restricted initial delay set (step 2).
	D1 time.Duration
	// Condense is the structural class-partition maintenance share of
	// steps 3–4: splitting classes the refinement distinguishes and
	// coalescing indistinguishable ones back together. Stamp-only
	// splitBySet passes that split nothing are left in Precedence — they
	// are part of every rectangle insertion and too cheap to time
	// individually. Zero under Options.PerAccessR.
	Condense time.Duration
	// Precedence covers seeding and refining R (steps 3–4), minus the
	// partition maintenance reported as Condense.
	Precedence time.Duration
	// Guards is the lock-guard computation (section 5.3).
	Guards time.Duration
	// CoPhase is the barrier phase partitioning (section 5.2).
	CoPhase time.Duration
	// Orient covers the oriented back-path searches and the final union
	// (steps 5–6).
	Orient time.Duration
}

// Total sums the sub-phase times.
func (t Timing) Total() time.Duration {
	return t.Prepare + t.Baseline + t.D1 + t.Condense + t.Precedence + t.Guards + t.CoPhase + t.Orient
}

// String renders the timing as one line per sub-phase.
func (t Timing) String() string {
	var sb strings.Builder
	for _, row := range []struct {
		name string
		d    time.Duration
	}{
		{"prepare", t.Prepare}, {"baseline", t.Baseline}, {"d1", t.D1},
		{"condense", t.Condense}, {"precedence", t.Precedence},
		{"guards", t.Guards}, {"cophase", t.CoPhase}, {"orient", t.Orient},
	} {
		fmt.Fprintf(&sb, "%-12s %s\n", row.name, row.d)
	}
	fmt.Fprintf(&sb, "%-12s %s\n", "total", t.Total())
	return sb.String()
}

// Result carries everything the analysis computed.
type Result struct {
	Fn   *ir.Fn
	AG   *ir.AccessGraph
	CS   *conflict.Set
	Dom  *ir.DomTree
	PDom *ir.PostDomTree
	// Baseline is the plain Shasha–Snir delay set (no synchronization
	// analysis): the paper's Figure 12 "unoptimized" compiler.
	Baseline *delay.Set
	// D1 is the initial delay set restricted to synchronization pairs.
	D1 *delay.Set
	// R is the refined precedence relation.
	R *Precedence
	// D is the final delay set.
	D *delay.Set
	// Guards maps access ID -> set of lock keys guarding it.
	Guards map[int]map[string]bool
	// CoPhase is the symmetric co-phase relation (nil when barrier
	// analysis is disabled): CoPhase.Has(x, y) reports that accesses x and
	// y can appear in a common barrier-free region. The backing is
	// class-condensed: accesses with the same region-membership set share
	// one physical row.
	CoPhase *graph.ClassRows
	// Regions and LargestRegion describe the strongly-connected-component
	// decomposition of the oriented mixed graph the regionized delay
	// engine works on: how many regions there are and how many accesses
	// the biggest one holds. Surfaced through the pass pipeline's
	// -pass-stats counters.
	Regions       int
	LargestRegion int
	// RClasses and RClassSplits describe the class-condensed precedence
	// representation: how many R-equivalence classes the final partition
	// has and how many splits refinement forced. Zero when the per-access
	// oracle was selected (Options.PerAccessR).
	RClasses     int
	RClassSplits int
	// Timing records how long each sub-phase took.
	Timing Timing
}

// Analyze runs the full pipeline on fn. It is the composition of the three
// sub-phases the pass pipeline runs separately: Prepare (shared inputs),
// ComputeBaseline (Shasha–Snir cycle detection), and RefineSync (the
// synchronization analysis of section 5).
func Analyze(fn *ir.Fn, opts Options) *Result {
	// SPMD programs repeat phase structure, so distinct regions — within
	// one pass and across the baseline/D1/data passes — frequently share
	// their local-id fingerprint. A per-call region cache dedupes those
	// solves; the fingerprint covers everything the answer depends on, so
	// intra-program reuse is exact for the same reason cross-edit reuse is.
	if opts.regionCache == nil {
		opts.regionCache = delay.NewRegionCache(0)
	}
	res := Prepare(fn)
	res.ComputeBaseline(opts)
	res.RefineSync(opts)
	return res
}

// Prepare builds the inputs every delay computation shares: the access
// graph, the conflict set, and the dominator/postdominator trees.
func Prepare(fn *ir.Fn) *Result {
	t0 := time.Now()
	res := &Result{
		Fn:   fn,
		AG:   ir.BuildAccessGraph(fn),
		CS:   conflict.Compute(fn),
		Dom:  ir.BuildDom(fn),
		PDom: ir.BuildPostDom(fn),
	}
	res.Timing.Prepare = time.Since(t0)
	return res
}

// ComputeBaseline computes the plain Shasha–Snir delay set (no
// synchronization analysis) into res.Baseline. Requires Prepare.
func (res *Result) ComputeBaseline(opts Options) {
	t0 := time.Now()
	if cached := opts.matCache.lookupBaseline(res); cached != nil {
		// Structural inputs unchanged since the previous edit: the
		// baseline is a pure function of them, reused read-only.
		res.Baseline = cached
		res.Timing.Baseline = time.Since(t0)
		return
	}
	res.Baseline = delay.Compute(res.AG, res.CS, delay.Constraints{
		Exact: opts.Exact, Reference: opts.Reference, Cache: opts.regionCache,
	})
	res.Timing.Baseline = time.Since(t0)
}

// RefineSync runs steps 2–6 of section 5.1: the synchronization-restricted
// initial delay set D1, the precedence relation R, lock guards, barrier
// phase partitioning, and the final refined delay set D. Requires Prepare
// and ComputeBaseline: D1 is read off res.Baseline.
func (res *Result) RefineSync(opts Options) {
	fn := res.Fn

	// Step 2: D1 is by definition the Shasha–Snir set restricted to pairs
	// with a synchronization endpoint, and the back-path test of one pair
	// never looks at which other pairs are asked about: D1 is a row mask of
	// the baseline.
	t0 := time.Now()
	syncIDs := []int{}
	for _, a := range fn.Accesses {
		if a.Kind.IsSync() {
			syncIDs = append(syncIDs, a.ID)
		}
	}
	if cached := opts.matCache.lookupD1(res); cached != nil {
		res.D1 = cached
	} else {
		res.D1 = res.Baseline.WithEndpoint(syncIDs)
		opts.matCache.store(res, res.Baseline, res.D1)
	}
	res.Timing.D1 = time.Since(t0)

	// Step 3: seed R. Both seed rules are rectangles over whole access
	// sets — every post of an event precedes every wait on it, and each
	// barrier access gets a reflexive edge — which is what lets the
	// class-condensed backing start from one universal class and only split
	// where the structure distinguishes members. (A reflexive rectangle
	// {a} x {a} forces a into a singleton class, reproducing the paper's
	// per-barrier behavior exactly.)
	t0 = time.Now()
	n := len(fn.Accesses)
	if opts.PerAccessR {
		res.R = NewPrecedence(n)
	} else if cached := opts.precCache.lookup(res, opts); cached != nil {
		// The precedence inputs (access kinds/symbols, dominator-classified
		// D1 pairs, refinement toggles) are unchanged since the previous
		// edit: R is a pure function of them, so the previous partition is
		// reused read-only and steps 3-4 are skipped.
		res.R = cached
		res.RClasses = res.R.Classes()
		res.RClassSplits = res.R.ClassSplits()
		res.Timing.Precedence = time.Since(t0)
		res.refineSyncRest(opts, syncIDs)
		return
	} else {
		res.R = newClassPrecedence(n)
	}
	if !opts.NoPostWait {
		// Bucket posts and waits per event symbol, in first-seen order so
		// the seeding sequence (and hence any split order) is deterministic.
		type eventAccs struct {
			posts, waits []int32
		}
		events := make(map[*sem.Symbol]*eventAccs)
		var order []*eventAccs
		for _, a := range fn.Accesses {
			if a.Kind != ir.AccPost && a.Kind != ir.AccWait {
				continue
			}
			ev := events[a.Sym]
			if ev == nil {
				ev = &eventAccs{}
				events[a.Sym] = ev
				order = append(order, ev)
			}
			if a.Kind == ir.AccPost {
				ev.posts = append(ev.posts, int32(a.ID))
			} else {
				ev.waits = append(ev.waits, int32(a.ID))
			}
		}
		for _, ev := range order {
			res.R.addRect(ev.posts, ev.waits)
		}
	}
	if !opts.NoBarrier {
		for _, a := range fn.Accesses {
			if a.Kind == ir.AccBarrier {
				res.R.Add(a.ID, a.ID)
			}
		}
	}

	// Step 4: close R under the dominator rule and transitivity.
	res.refineR()
	phase := time.Since(t0)
	if res.R.cp != nil {
		res.Timing.Condense = res.R.cp.maint
		res.RClasses = res.R.Classes()
		res.RClassSplits = res.R.ClassSplits()
		opts.precCache.store(res.R)
	}
	res.Timing.Precedence = phase - res.Timing.Condense

	res.refineSyncRest(opts, syncIDs)
}

// refineSyncRest runs the phases after R is available: lock guards, barrier
// phase partitioning, and the oriented back-path searches (steps 5-6).
func (res *Result) refineSyncRest(opts Options, syncIDs []int) {
	fn := res.Fn
	n := len(fn.Accesses)

	// Lock guards (section 5.3).
	t0 := time.Now()
	if !opts.NoLocks {
		res.Guards = computeGuards(res)
	} else {
		res.Guards = map[int]map[string]bool{}
	}
	res.Timing.Guards = time.Since(t0)

	// Barrier phase partitioning (section 5.2): two data accesses that
	// never share a barrier-free region cannot execute concurrently when
	// barriers line up, so their conflict edges cannot appear in a
	// violation window between two data accesses. The write->barrier and
	// barrier->read delays that actually enforce the phase separation are
	// sync-involving pairs and are computed without this filter (and kept
	// wholesale through D1).
	t0 = time.Now()
	if opts.NoBarrier {
		res.CoPhase = nil
	} else {
		res.CoPhase = buildCoPhase(fn, res.AG)
	}
	res.Timing.CoPhase = time.Since(t0)

	t0 = time.Now()
	cophase := func(x, y int) bool {
		if res.CoPhase == nil {
			return true
		}
		return res.CoPhase.Has(x, y)
	}
	orientDir := func(x, y int) bool {
		// Remove the direction [a2 -> a1] when [a1, a2] ∈ R.
		return !res.R.Has(y, x)
	}
	phasedDir := func(x, y int) bool {
		if fn.Accesses[x].Kind.IsData() && fn.Accesses[y].Kind.IsData() && !cophase(x, y) {
			return false
		}
		return orientDir(x, y)
	}
	// Per-access lock masks: bit l of guardBits[x] is set iff lock l guards
	// x, so the shared-lock arm of removed() is one AND of three words
	// instead of three map lookups plus an iteration — removed() runs once
	// per visited node of every restricted per-pair search. The map form
	// below stays as the fallback for >64 distinct locks.
	lockIDs := make(map[string]int)
	for _, ls := range res.Guards {
		for l := range ls {
			lockIDs[l] = 0
		}
	}
	{
		// Deterministic bit assignment (sorted names), so region memo keys
		// hashing guard masks are stable across runs.
		names := make([]string, 0, len(lockIDs))
		for l := range lockIDs {
			names = append(names, l)
		}
		sort.Strings(names)
		for i, l := range names {
			lockIDs[l] = i
		}
	}
	var guardBits []uint64
	if len(lockIDs) <= 64 {
		guardBits = make([]uint64, n)
		for id, ls := range res.Guards {
			for l := range ls {
				guardBits[id] |= 1 << lockIDs[l]
			}
		}
	}
	removed := func(a, b, z int) bool {
		// Figure 6: a path to a is an execution where the path's accesses
		// run before a; z with a ≤ z can never do that. Symmetrically a
		// path from b is an execution where they run after b.
		if res.R.Has(a, z) || res.R.Has(z, b) {
			return true
		}
		// Section 5.3: for a pair guarded by the same lock, other accesses
		// guarded by that lock cannot appear in the violation sequence.
		if guardBits != nil {
			return guardBits[a]&guardBits[b]&guardBits[z] != 0
		}
		if len(res.Guards) > 0 {
			ga, gb, gz := res.Guards[a], res.Guards[b], res.Guards[z]
			for l := range ga {
				if gb[l] && gz[l] {
					return true
				}
			}
		}
		return false
	}

	// Class partitions for the oriented pass, computed before the
	// orientation rows so those can be built in class coordinates. Nil
	// under the per-access oracle backing (and for >64 distinct locks),
	// where the engines get materialized per-access rows instead.
	var nodeSig func(x int, mask []uint64, lof []int32, s *delay.Sig)
	var classSig func(members []int32, mask []uint64, lof []int32, s *delay.Sig)
	var classBase, classPhased []int32
	if res.R.cp != nil {
		classSig = res.classSigFn(guardBits)
		classBase, classPhased = res.accessClasses(guardBits)
	} else {
		nodeSig = func(x int, mask []uint64, lof []int32, s *delay.Sig) {
			for wi, wd := range res.R.Row(x) {
				for m := wd & mask[wi]; m != 0; m &= m - 1 {
					s.Word(uint64(lof[wi<<6+bits.TrailingZeros64(m)]))
				}
			}
			s.Word(1 << 63)
			if guardBits != nil {
				s.Word(guardBits[x])
			}
		}
	}

	// Bit-parallel forms of the same constraints for the delay engine.
	// The closure forms above stay on the Constraints so the per-pair
	// reference oracle re-derives every answer independently of these
	// precomputed rows. ox[y] = C(x, y) &^ R(y, x): the direction x -> y is
	// dropped exactly when [y, x] ∈ R. Both inputs are class-shared — the
	// conflict row per similarity group, the R column row per R class — so
	// under the class backing one physical row per base class serves every
	// member and no per-access n x n matrix is ever materialized.
	w := graph.WordsFor(n)
	buildOrientRow := func(x int, ox []uint64) {
		cx, rx := res.CS.Row(x), res.R.ColRow(x)
		for i := range ox {
			ox[i] = cx[i] &^ rx[i]
		}
	}
	dataMask := make([]uint64, w)
	for _, a := range fn.Accesses {
		if a.Kind.IsData() {
			graph.BitSet(dataMask, a.ID)
		}
	}
	// phasedRow masks the phase filter into an orientation row in place:
	// data->data conflict directions survive only co-phase.
	phaseRow := func(x int, px []uint64) {
		if res.CoPhase != nil && fn.Accesses[x].Kind.IsData() {
			cr := res.CoPhase.Row(x)
			for i := range px {
				px[i] &= ^dataMask[i] | cr[i]
			}
		}
	}
	var orientRows, phasedRows graph.Rows
	if classBase != nil {
		nb := 0
		for _, c := range classBase {
			if int(c)+1 > nb {
				nb = int(c) + 1
			}
		}
		baseRows := make([][]uint64, nb)
		for x := 0; x < n; x++ {
			if c := classBase[x]; baseRows[c] == nil {
				baseRows[c] = make([]uint64, w)
				buildOrientRow(x, baseRows[c])
			}
		}
		orientRows = graph.NewClassRows(classBase, baseRows, n)
		phasedRows = orientRows
		if res.CoPhase != nil {
			np := 0
			for _, c := range classPhased {
				if int(c)+1 > np {
					np = int(c) + 1
				}
			}
			phRows := make([][]uint64, np)
			for x := 0; x < n; x++ {
				if c := classPhased[x]; phRows[c] == nil {
					row := make([]uint64, w)
					copy(row, baseRows[classBase[x]]) // phased refines base
					phaseRow(x, row)
					phRows[c] = row
				}
			}
			phasedRows = graph.NewClassRows(classPhased, phRows, n)
		}
	} else {
		om := graph.NewBitMatrix(n)
		for x := 0; x < n; x++ {
			buildOrientRow(x, om.Row(x))
		}
		orientRows = om
		phasedRows = om
		if res.CoPhase != nil {
			pm := graph.NewBitMatrix(n)
			for x := 0; x < n; x++ {
				px := pm.Row(x)
				copy(px, om.Row(x))
				phaseRow(x, px)
			}
			phasedRows = pm
		}
	}
	// Exact bitset cover of the removed() predicate: R.Row(a) covers the
	// R.Has(a, z) arm, the transposed row covers R.Has(z, b), and per-lock
	// access masks cover the shared-lock triple. A search whose visited set
	// misses the cover is identical to the unrestricted one.
	lockMask := make(map[string][]uint64)
	for id, ls := range res.Guards {
		for l := range ls {
			m := lockMask[l]
			if m == nil {
				m = make([]uint64, w)
				lockMask[l] = m
			}
			graph.BitSet(m, id)
		}
	}
	lockRows := make([][]uint64, len(lockIDs))
	for l, bit := range lockIDs {
		lockRows[bit] = lockMask[l]
	}
	cover := func(a, b int, scratch []uint64) []uint64 {
		ra, rb := res.R.Row(a), res.R.ColRow(b)
		for i := range scratch {
			scratch[i] = ra[i] | rb[i]
		}
		if guardBits != nil {
			for m := guardBits[a] & guardBits[b]; m != 0; m &= m - 1 {
				for i, wd := range lockRows[bits.TrailingZeros64(m)] {
					scratch[i] |= wd
				}
			}
		} else if len(res.Guards) > 0 {
			ga, gb := res.Guards[a], res.Guards[b]
			for l := range ga {
				if gb[l] {
					for i, wd := range lockMask[l] {
						scratch[i] |= wd
					}
				}
			}
		}
		return scratch
	}
	// Region statistics: the strongly-connected-component decomposition of
	// the oriented mixed graph — the partition the delay engine solves
	// component by component.
	mixed := func(u int, visit func(v int32)) {
		for _, v := range res.AG.G.Adj[u] {
			visit(int32(v))
		}
		for wi, wd := range orientRows.Row(u) {
			for wd != 0 {
				visit(int32(wi<<6 + bits.TrailingZeros64(wd)))
				wd &= wd - 1
			}
		}
	}
	cond := graph.Condense(n, mixed)
	res.Regions = cond.NComp
	for _, m := range cond.Members {
		if len(m) > res.LargestRegion {
			res.LargestRegion = len(m)
		}
	}

	// Steps 5-6. The paper's two oriented passes collapse to one: a pair
	// involving a synchronization access is oriented-and-removed in a
	// strict edge-subgraph of D1's instance (orientation only drops
	// directed conflict edges, removal only excludes interior nodes, and
	// the endpoint filter is identical), so every sync-involving oriented
	// delay is already in D1 and the sync pass contributes nothing to the
	// union — TestOrientedSyncSubsetOfD1 holds the engine and its oracle
	// to that containment. Only the data-data pass (phase filter on top of
	// orientation) can produce pairs outside D1.
	//
	// The cover above is exact (each arm of removed() is covered by exactly
	// its own rows), which lets the delay engine fold it straight into
	// restricted-search visited sets. nodeSig feeds the same rows into the
	// per-region memo key for incremental analysis: removed() consults, for
	// nodes of one region, only R restricted to that region plus the nodes'
	// lock-guard sets, so hashing those (in local ids) makes region reuse
	// exact under global renumbering. Comp shares the condensation computed
	// for the region statistics: the phased graph is an edge-subgraph of
	// the orient graph, so the orient SCCs are closed under phased edges.
	dataPairs := delay.Compute(res.AG, res.CS, delay.Constraints{
		SkipEndpoints: syncIDs,
		ConflictDir:   phasedDir,
		DirRows:       phasedRows,
		Comp:          cond,
		Removed:       removed,
		RemovedCover:  cover,
		RemovedExact:  true,
		Cache:         opts.regionCache,
		NodeSig:       nodeSig,
		ClassSig:      classSig,
		AccessClass:   classPhased,
		Exact:         opts.Exact,
		Reference:     opts.Reference,
	})
	res.D = res.D1.Union(dataPairs)
	res.Timing.Orient = time.Since(t0)
}

// buildCoPhase computes the symmetric co-phase relation: CoPhase.Has(x, y)
// is true when some barrier-free region of the access graph contains both x
// and y. Regions start at the program entry and immediately after each
// barrier access, and extend until the next barrier. Accesses that are
// never co-phase cannot execute concurrently under aligned barriers.
func buildCoPhase(fn *ir.Fn, ag *ir.AccessGraph) *graph.ClassRows {
	n := len(fn.Accesses)
	isBarrier := func(id int) bool { return fn.Accesses[id].Kind == ir.AccBarrier }

	// An access's co-phase row is the union of the masks of the regions
	// containing it, so the row depends only on the access's
	// region-membership set. Collect per-access membership lists, intern
	// them into classes, and build one shared row per class: O(#regions *
	// n/64) words where the per-access matrix was O(n^2/64).
	w := graph.WordsFor(n)
	var regionMasks [][]uint64
	memberOf := make([][]int32, n) // access -> region ids, ascending
	mark := func(region []int) {
		if len(region) == 0 {
			return
		}
		mask := make([]uint64, w)
		id := int32(len(regionMasks))
		for _, x := range region {
			graph.BitSet(mask, x)
			memberOf[x] = append(memberOf[x], id)
		}
		regionMasks = append(regionMasks, mask)
	}
	// BFS limited to non-barrier nodes.
	sweep := func(starts []int) []int {
		seen := make([]bool, n)
		var region []int
		var stack []int
		for _, s := range starts {
			if isBarrier(s) || seen[s] {
				continue
			}
			seen[s] = true
			stack = append(stack, s)
			region = append(region, s)
		}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range ag.G.Adj[u] {
				if seen[v] || isBarrier(v) {
					continue
				}
				seen[v] = true
				stack = append(stack, v)
				region = append(region, v)
			}
		}
		return region
	}

	// Region starting at program entry: accesses reachable before the
	// first barrier. Entry accesses are those with no position... the
	// access graph has no explicit entry node, so start from the accesses
	// of the entry block chain: every access not strictly preceded by a
	// barrier is conservatively seeded below via per-barrier sweeps plus
	// an entry sweep from the function's first reachable accesses.
	entryStarts := firstAccesses(fn)
	mark(sweep(entryStarts))
	for _, a := range fn.Accesses {
		if a.Kind == ir.AccBarrier {
			mark(sweep(ag.G.Adj[a.ID]))
		}
	}

	// Intern membership lists: accesses in the same regions share a class
	// (and hence one physical row). Barrier accesses and anything outside
	// every region land in the empty class with an all-zero row.
	classOf := make([]int32, n)
	idx := make(map[string]int32)
	var rows [][]uint64
	var keyBuf []byte
	for x := 0; x < n; x++ {
		keyBuf = keyBuf[:0]
		for _, r := range memberOf[x] {
			keyBuf = append(keyBuf, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
		}
		c, ok := idx[string(keyBuf)]
		if !ok {
			c = int32(len(rows))
			idx[string(keyBuf)] = c
			row := make([]uint64, w)
			for _, r := range memberOf[x] {
				for i, wd := range regionMasks[r] {
					row[i] |= wd
				}
			}
			rows = append(rows, row)
		}
		classOf[x] = c
	}
	return graph.NewClassRows(classOf, rows, n)
}

// firstAccesses returns the accesses reachable from the function entry
// without crossing any other access.
func firstAccesses(fn *ir.Fn) []int {
	var out []int
	seen := make(map[int]bool)
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		if seen[b.ID] {
			return
		}
		seen[b.ID] = true
		for _, s := range b.Stmts {
			if a := ir.AccessOf(s); a != nil {
				out = append(out, a.ID)
				return
			}
		}
		for _, s := range b.Succs() {
			walk(s)
		}
	}
	walk(fn.Blocks[0])
	return out
}

// eventsMatch reports whether a post and a wait name the same event object.
// MiniSplit events are single-post (posting an already-posted event is a
// runtime error, matching the paper's "illegal to post more than once on an
// event variable" assumption), so a wait on event e[v] is released by *the*
// unique post of e[v]: any post statement on the same symbol is the
// statically matching producer.
func eventsMatch(post, wait *ir.Access) bool {
	return post.Sym == wait.Sym
}

// succClass and predClass intern the two sides of the dominator
// derivation. Whether [a1, a2] is derivable depends only on a1's
// dominated-successor list and a2's dominating-predecessor row, so
// accesses sharing those collapse into one class and the quadratic scan
// runs over class pairs. In barrier-phase-heavy programs whole phases
// share their dominating-successor structure, shrinking the scan by
// orders of magnitude.
type succClass struct {
	succs   []int
	row     []uint64 // succs as a bitset: the interning key
	members []int32
}

type predClass struct {
	row     []uint64 // dominating D1 predecessors, as an access bitset
	members []int32
}

// derivationClasses builds the interned producer/consumer classes of the
// step-4 derivation from the dominator-classified D1 pairs, without
// materializing Pairs() or an n x n predecessor matrix: the producer side
// filters each A-major D1 row to the targets the domination conditions
// admit, the consumer side filters each B-major row to its dominating
// sources, and both sides intern the filtered bitsets directly (equal rows
// — the exact class key — hash to the same bucket; an access with an
// all-zero filtered row joins no class).
//
// Producer side (a1, b1): every execution of a1 must be followed by b1,
// whose D1 delay then forces a1's completion. The paper states "a1
// dominates b1"; b1 postdominating a1 is the execution-order dual and
// covers producers inside loops (a write in a loop body never dominates the
// post after the loop, but the post does postdominate it). Consumer side
// (b2, a2): b2 must have executed (and its delay forced) before any
// execution of a2 — domination proper.
func (res *Result) derivationClasses() ([]*succClass, []*predClass) {
	fn := res.Fn
	n := len(fn.Accesses)
	if n == 0 {
		return nil, nil
	}
	byA := res.D1.SourceMatrix()
	w := graph.WordsFor(n)
	blk := make([]int32, n)
	idx := make([]int32, n)
	for i, a := range fn.Accesses {
		blk[i] = int32(a.Blk.ID)
		idx[i] = int32(a.Idx)
	}
	dom, pdom := res.Dom, res.PDom
	rowBuf := make([]uint64, w)

	hash := func(row []uint64) uint64 {
		h := uint64(1469598103934665603)
		for _, wd := range row {
			h ^= wd
			h *= 1099511628211
		}
		return h
	}

	// Producer side: keep b when a dominates b (same block: earlier index;
	// the postdomination arm collapses to the same index test in-block) or
	// b postdominates a.
	var sClasses []*succClass
	sBuck := make(map[uint64][]int)
	for a := 0; a < n; a++ {
		nz := false
		for wi, wd := range byA.Row(a) {
			out := uint64(0)
			for m := wd; m != 0; m &= m - 1 {
				b := wi<<6 + bits.TrailingZeros64(m)
				var keep bool
				if blk[a] == blk[b] {
					keep = idx[b] > idx[a]
				} else {
					keep = dom.Dominates(int(blk[a]), int(blk[b])) ||
						pdom.PostDominates(int(blk[b]), int(blk[a]))
				}
				if keep {
					out |= 1 << (uint(b) & 63)
				}
			}
			rowBuf[wi] = out
			nz = nz || out != 0
		}
		if !nz {
			continue
		}
		h := hash(rowBuf)
		ci := -1
		for _, c := range sBuck[h] {
			if wordsEqual(sClasses[c].row, rowBuf) {
				ci = c
				break
			}
		}
		if ci < 0 {
			ci = len(sClasses)
			sBuck[h] = append(sBuck[h], ci)
			row := make([]uint64, w)
			copy(row, rowBuf)
			var succs []int
			for wi, wd := range row {
				for ; wd != 0; wd &= wd - 1 {
					succs = append(succs, wi<<6+bits.TrailingZeros64(wd))
				}
			}
			sClasses = append(sClasses, &succClass{succs: succs, row: row})
		}
		sClasses[ci].members = append(sClasses[ci].members, int32(a))
	}

	// Consumer side: keep s when s dominates a2.
	var pClasses []*predClass
	pBuck := make(map[uint64][]int)
	for a2 := 0; a2 < n; a2++ {
		nz := false
		for wi, wd := range res.D1.TargetRow(a2) {
			out := uint64(0)
			for m := wd; m != 0; m &= m - 1 {
				s := wi<<6 + bits.TrailingZeros64(m)
				var keep bool
				if blk[s] == blk[a2] {
					keep = idx[s] < idx[a2]
				} else {
					keep = dom.Dominates(int(blk[s]), int(blk[a2]))
				}
				if keep {
					out |= 1 << (uint(s) & 63)
				}
			}
			rowBuf[wi] = out
			nz = nz || out != 0
		}
		if !nz {
			continue
		}
		h := hash(rowBuf)
		ci := -1
		for _, c := range pBuck[h] {
			if wordsEqual(pClasses[c].row, rowBuf) {
				ci = c
				break
			}
		}
		if ci < 0 {
			ci = len(pClasses)
			pBuck[h] = append(pBuck[h], ci)
			row := make([]uint64, w)
			copy(row, rowBuf)
			pClasses = append(pClasses, &predClass{row: row})
		}
		pClasses[ci].members = append(pClasses[ci].members, int32(a2))
	}
	return sClasses, pClasses
}

// refineR iterates the dominator-based derivation and transitive closure
// until fixpoint (step 4 of section 5.1), dispatching on the backing.
func (res *Result) refineR() {
	sClasses, pClasses := res.derivationClasses()
	if res.R.cp != nil {
		res.refineRClass(sClasses, pClasses)
	} else {
		res.refineRPerAccess(sClasses, pClasses)
	}
}

// refineRPerAccess runs the fixpoint on the per-access oracle backing.
func (res *Result) refineRPerAccess(sClasses []*succClass, pClasses []*predClass) {
	w := graph.WordsFor(len(res.Fn.Accesses))
	// derived memoizes class pairs already added to R; R only grows, so a
	// derivation never needs re-checking once it fires.
	derived := make([]bool, len(sClasses)*len(pClasses))
	u := make([]uint64, w)
	for {
		changed := res.R.transClose()
		for si, sc := range sClasses {
			for i := range u {
				u[i] = 0
			}
			for _, b1 := range sc.succs {
				rb := res.R.Row(b1)
				for i := range u {
					u[i] |= rb[i]
				}
			}
			for pi, pc := range pClasses {
				if derived[si*len(pClasses)+pi] || !graph.AndAny(u, pc.row) {
					continue
				}
				// Some b1 in succs and b2 in preds have [b1, b2] ∈ R: every
				// member pair of the two classes joins R.
				derived[si*len(pClasses)+pi] = true
				if res.R.addRect(sc.members, pc.members) {
					changed = true
				}
			}
		}
		if !changed {
			return
		}
	}
}

// refineRClass runs the same fixpoint on the class-condensed backing. The
// per-round state lives in class coordinates: each producer class's union
// of R-successors and each consumer class's dominating-predecessor set
// become nc-bit class vectors, so the derivation test is an intersection
// of c-bit rows instead of n-bit rows, and a firing derivation adds one
// rectangle instead of |members|^2 edges.
//
// Rectangle application is deferred to the end of the round. The scan
// therefore runs against a frozen partition — the screening vectors built
// after the closure stay exact for the whole scan, with no re-verification
// of hits against live membership (an earlier design applied rectangles
// mid-scan and had to chase the splits they caused). Deferral loses
// nothing: a derivation enabled by a rectangle applied this round fires
// next round, which the relation growth forces anyway. The batch is
// grouped by consumer class — all firing producers' members concatenate
// into a single addRect per consumer — so the consumer side is split once
// per round instead of once per fire, and the fixpoint (confluent, since
// R only grows toward the same closure) is reached with the same final
// relation as eager application.
func (res *Result) refineRClass(sClasses []*succClass, pClasses []*predClass) {
	cp := res.R.cp
	derived := make([]bool, len(sClasses)*len(pClasses))
	fired := make([][]int32, len(pClasses)) // pi -> concatenated producer members
	var firedOrder []int
	for {
		// Coalescing before each closure keeps the class count near the
		// number of distinct R rows: the seed rectangles and batch-apply
		// splits fragment the partition far beyond that, and the closure
		// that follows is cubic in the class count. The final round fires
		// nothing, so the fixpoint state is itself coalesced and closed.
		cp.coalesce()
		changed := cp.transClose()
		wc := cp.wc()
		pcm := make([][]uint64, len(pClasses))
		for pi, pc := range pClasses {
			v := make([]uint64, wc)
			for wi, wd := range pc.row {
				for ; wd != 0; wd &= wd - 1 {
					b2 := wi<<6 + bits.TrailingZeros64(wd)
					graph.BitSet(v, int(cp.classOf[b2]))
				}
			}
			pcm[pi] = v
		}
		firedOrder = firedOrder[:0]
		u := make([]uint64, wc)
		for si, sc := range sClasses {
			for i := range u {
				u[i] = 0
			}
			for _, b1 := range sc.succs {
				row := cp.rows[cp.classOf[b1]]
				for i := range u {
					u[i] |= row[i]
				}
			}
			for pi := range pClasses {
				if derived[si*len(pClasses)+pi] {
					continue
				}
				if firstCommonBit(u, pcm[pi]) < 0 {
					continue
				}
				derived[si*len(pClasses)+pi] = true
				if len(fired[pi]) == 0 {
					firedOrder = append(firedOrder, pi)
				}
				fired[pi] = append(fired[pi], sc.members...)
			}
		}
		for _, pi := range firedOrder {
			if cp.addRect(fired[pi], pClasses[pi].members) {
				changed = true
			}
			fired[pi] = fired[pi][:0]
		}
		// Splits without new crel content cannot enable a derivation (they
		// leave the access-level relation untouched, and the vectors the
		// scan used were exact for it), so an unchanged relation after a
		// complete scan certifies the fixpoint.
		if !changed {
			return
		}
	}
}

// firstCommonBit returns the lowest bit set in both rows' common prefix,
// or -1. The rows may differ in length when a mid-round class split grew
// one side; bits beyond the shorter row correspond to classes the other
// vector was built without, which the next round re-tests.
func firstCommonBit(a, b []uint64) int {
	m := len(a)
	if len(b) < m {
		m = len(b)
	}
	for i := 0; i < m; i++ {
		if w := a[i] & b[i]; w != 0 {
			return i<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// computeGuards implements the guarded-access definition of section 5.3.
//
// An access a is guarded by lock l when:
//  1. a is dominated by a lock(l) operation b1 with no intervening
//     unlock(l) (we require l to be must-held at a);
//  2. a dominates an unlock(l) operation b2;
//  3. a's execution is confined to the critical section: b1's completion
//     is forced before a ([b1, a] through D1 ∪ def-use) and a's completion
//     before b2 ([a, b2] likewise). The def-use component covers reads
//     whose completion is forced by the first use of their value (as in a
//     read-modify-write), which D1 alone does not record.
func computeGuards(res *Result) map[int]map[string]bool {
	fn := res.Fn
	guards := make(map[int]map[string]bool)
	held := mustHeldLocks(fn)
	locked := false
	for _, ls := range held {
		if len(ls) > 0 {
			locked = true
			break
		}
	}
	if !locked {
		// Lock-free program: nothing is guarded, so the confinement graph
		// never needs to be built.
		return guards
	}
	locks := make(map[string][]*ir.Access)
	unlocks := make(map[string][]*ir.Access)
	for _, c := range fn.Accesses {
		switch c.Kind {
		case ir.AccLock:
			k := accessKey(fn, c)
			locks[k] = append(locks[k], c)
		case ir.AccUnlock:
			k := accessKey(fn, c)
			unlocks[k] = append(unlocks[k], c)
		}
	}
	confined := newConfinement(res)
	for _, a := range fn.Accesses {
		for l := range held[a.ID] {
			b1 := dominatingLock(res, a, locks[l])
			if b1 == nil || !confined.follows(b1.ID, a.ID) {
				continue
			}
			b2 := dominatedUnlock(res, a, unlocks[l])
			if b2 == nil || !confined.precedes(a.ID, b2.ID) {
				continue
			}
			if guards[a.ID] == nil {
				guards[a.ID] = make(map[string]bool)
			}
			guards[a.ID][l] = true
		}
	}
	return guards
}

// confinement answers the two questions the guard test asks — does b1
// reach a, does a reach b2 — over the graph of D1 edges plus direct
// def-use edges (a Load's destination local used in a later access's
// expressions forces the load's completion before that access initiates —
// an operand dependence the hardware enforces unconditionally). b1 is
// always a lock and b2 an unlock, so one forward sweep per distinct lock
// access and one backward sweep per distinct unlock access, memoized,
// answer every query; no closure of the whole graph is built.
type confinement struct {
	succ, pred func(u int) []uint64 // D1 targets / sources of u
	use, def   [][]int32            // def-use edges and their reverse
	from, into map[int][]uint64     // memoized sweeps, by start access
	queue      []int32
}

func newConfinement(res *Result) *confinement {
	fn := res.Fn
	n := len(fn.Accesses)
	c := &confinement{
		use: make([][]int32, n), def: make([][]int32, n),
		from: make(map[int][]uint64), into: make(map[int][]uint64),
	}
	c.succ, c.pred = res.D1.SourceMatrix().Row, res.D1.TargetRow
	// Def-use edges come from a local -> reading-accesses index, so edge
	// collection is linear in the number of uses instead of loads x accesses.
	users := make(map[ir.LocalID][]int32)
	var locals []ir.LocalID
	for _, a := range fn.Accesses {
		locals = accessLocals(a, locals[:0])
		for _, l := range locals {
			users[l] = append(users[l], int32(a.ID))
		}
	}
	for _, blk := range fn.Blocks {
		for _, s := range blk.Stmts {
			ld, ok := s.(*ir.Load)
			if !ok {
				continue
			}
			for _, cid := range users[ld.Dst] {
				if int(cid) != ld.Acc.ID {
					c.use[ld.Acc.ID] = append(c.use[ld.Acc.ID], cid)
					c.def[cid] = append(c.def[cid], int32(ld.Acc.ID))
				}
			}
		}
	}
	return c
}

// follows reports whether some path of one or more edges leads from the
// lock b1 to a; precedes, from a to the unlock b2. A direct D1 edge — the
// usual case, a lock or unlock endpoint making the pair a D1 candidate —
// answers without a sweep.
func (c *confinement) follows(b1, a int) bool {
	return graph.BitGet(c.succ(b1), a) || graph.BitGet(c.sweep(c.from, b1, c.succ, c.use), a)
}

func (c *confinement) precedes(a, b2 int) bool {
	return graph.BitGet(c.pred(b2), a) || graph.BitGet(c.sweep(c.into, b2, c.pred, c.def), a)
}

// sweep is one memoized word-parallel BFS from start over the D1 rows plus
// the listed def-use edges. start itself is marked only when a cycle comes
// back to it.
func (c *confinement) sweep(memo map[int][]uint64, start int, rows func(int) []uint64, extra [][]int32) []uint64 {
	if vis, ok := memo[start]; ok {
		return vis
	}
	vis := make([]uint64, len(rows(start)))
	q := append(c.queue[:0], int32(start))
	for i := 0; i < len(q); i++ {
		x := int(q[i])
		for wi, wd := range rows(x) {
			nw := wd &^ vis[wi]
			vis[wi] |= nw
			for ; nw != 0; nw &= nw - 1 {
				q = append(q, int32(wi<<6+bits.TrailingZeros64(nw)))
			}
		}
		for _, y := range extra[x] {
			if !graph.BitGet(vis, int(y)) {
				graph.BitSet(vis, int(y))
				q = append(q, y)
			}
		}
	}
	c.queue = q
	memo[start] = vis
	return vis
}

// accessLocals appends the locals the access's statement reads.
func accessLocals(a *ir.Access, out []ir.LocalID) []ir.LocalID {
	if a.Blk == nil || a.Idx >= len(a.Blk.Stmts) {
		return out
	}
	switch s := a.Blk.Stmts[a.Idx].(type) {
	case *ir.Load:
		if s.Acc.Index != nil {
			out = ir.ExprLocals(s.Acc.Index, out)
		}
	case *ir.Store:
		out = ir.ExprLocals(s.Src, out)
		if s.Acc.Index != nil {
			out = ir.ExprLocals(s.Acc.Index, out)
		}
	case *ir.SyncOp:
		if s.Acc.Index != nil {
			out = ir.ExprLocals(s.Acc.Index, out)
		}
	}
	return out
}

// mustHeldLocks runs a forward must-dataflow: held[acc] = set of lock keys
// held on every path reaching the access.
func mustHeldLocks(fn *ir.Fn) map[int]map[string]bool {
	nb := len(fn.Blocks)
	// in[b] = set held at block entry. Universal set approximated by nil
	// with a visited flag.
	in := make([]map[string]bool, nb)
	visited := make([]bool, nb)
	preds := fn.Preds()

	clone := func(m map[string]bool) map[string]bool {
		out := make(map[string]bool, len(m))
		for k, v := range m {
			if v {
				out[k] = true
			}
		}
		return out
	}
	transfer := func(b *ir.Block, s map[string]bool) map[string]bool {
		out := clone(s)
		for _, st := range b.Stmts {
			a := ir.AccessOf(st)
			if a == nil {
				continue
			}
			switch a.Kind {
			case ir.AccLock:
				out[accessKey(fn, a)] = true
			case ir.AccUnlock:
				delete(out, accessKey(fn, a))
			}
		}
		return out
	}
	intersect := func(a, b map[string]bool) map[string]bool {
		out := make(map[string]bool)
		for k := range a {
			if b[k] {
				out[k] = true
			}
		}
		return out
	}

	in[0] = map[string]bool{}
	visited[0] = true
	for changed := true; changed; {
		changed = false
		for _, b := range fn.Blocks {
			if b.ID != 0 {
				var meet map[string]bool
				any := false
				for _, p := range preds[b.ID] {
					if !visited[p.ID] {
						continue
					}
					out := transfer(p, in[p.ID])
					if !any {
						meet = out
						any = true
					} else {
						meet = intersect(meet, out)
					}
				}
				if !any {
					continue
				}
				if !visited[b.ID] || !sameSet(in[b.ID], meet) {
					in[b.ID] = meet
					visited[b.ID] = true
					changed = true
				}
			}
		}
	}

	held := make(map[int]map[string]bool)
	for _, b := range fn.Blocks {
		if !visited[b.ID] {
			continue
		}
		cur := clone(in[b.ID])
		for _, st := range b.Stmts {
			a := ir.AccessOf(st)
			if a == nil {
				continue
			}
			held[a.ID] = clone(cur)
			switch a.Kind {
			case ir.AccLock:
				cur[accessKey(fn, a)] = true
			case ir.AccUnlock:
				delete(cur, accessKey(fn, a))
			}
		}
	}
	return held
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// dominatingLock finds among locks (the lock accesses of one key) one that
// dominates a, or nil.
func dominatingLock(res *Result, a *ir.Access, locks []*ir.Access) *ir.Access {
	for _, c := range locks {
		if res.Dom.StmtDominates(c, a) {
			return c
		}
	}
	return nil
}

// dominatedUnlock finds among unlocks (the unlock accesses of one key) one
// dominated by a, or nil.
func dominatedUnlock(res *Result, a *ir.Access, unlocks []*ir.Access) *ir.Access {
	for _, c := range unlocks {
		if res.Dom.StmtDominates(a, c) {
			return c
		}
	}
	return nil
}

func accessKey(fn *ir.Fn, a *ir.Access) string {
	if a.Index == nil {
		return a.Sym.Name
	}
	return a.Sym.Name + "[" + fn.ExprString(a.Index) + "]"
}

// Summary renders a human-readable account of the analysis for the driver.
func (res *Result) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "accesses:        %d\n", len(res.Fn.Accesses))
	fmt.Fprintf(&sb, "conflict pairs:  %d\n", res.CS.Size())
	fmt.Fprintf(&sb, "baseline delays: %d (Shasha-Snir)\n", res.Baseline.Size())
	fmt.Fprintf(&sb, "D1 delays:       %d\n", res.D1.Size())
	fmt.Fprintf(&sb, "precedence |R|:  %d\n", res.R.Size())
	if c := res.R.Classes(); c > 0 {
		fmt.Fprintf(&sb, "R classes:       %d (%d splits, %.1fx condensed)\n",
			c, res.R.ClassSplits(), float64(len(res.Fn.Accesses))/float64(c))
	}
	fmt.Fprintf(&sb, "final delays:    %d\n", res.D.Size())
	guarded := make([]int, 0, len(res.Guards))
	for id := range res.Guards {
		guarded = append(guarded, id)
	}
	sort.Ints(guarded)
	if len(guarded) > 0 {
		fmt.Fprintf(&sb, "lock-guarded accesses: %v\n", guarded)
	}
	return sb.String()
}
