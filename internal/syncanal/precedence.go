package syncanal

import (
	"math/bits"

	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/sem"
)

// Steps 3 and 4 of section 5.1: the precedence relation R, its seeding from
// post->wait pairs and barriers, and its closure under the dominator rule
// and transitivity.

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

// seedPrecedence is step 3 of section 5.1: seed R with the matching
// post->wait pairs, plus a reflexive edge for each barrier (operations
// before a barrier episode precede operations after it on every processor).
// MiniSplit events are single-post (posting an already-posted event is a
// runtime error, matching the paper's "illegal to post more than once on an
// event variable" assumption), so a wait on event e[v] is released by *the*
// unique post of e[v]: any post statement on the same symbol is the
// statically matching producer.
//
// Both seed rules are rectangles over whole access sets — every post of an
// event precedes every wait on it, and each barrier access gets a reflexive
// edge — which is what lets the class-condensed backing start from one
// universal class and only split where the structure distinguishes members.
// (A reflexive rectangle {a} x {a} forces a into a singleton class,
// reproducing the paper's per-barrier behavior exactly.)
func (res *Result) seedPrecedence(opts Options) {
	fn := res.Fn
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
// are the exact class key; an access with an all-zero filtered row joins
// no class).
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

	// Producer side: keep b when a dominates b (same block: earlier index;
	// the postdomination arm collapses to the same index test in-block) or
	// b postdominates a.
	var sClasses []*succClass
	var sRows graph.RowInterner
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
		ci, fresh := sRows.Intern(rowBuf)
		if fresh {
			sc := &succClass{}
			for wi, wd := range rowBuf {
				for ; wd != 0; wd &= wd - 1 {
					sc.succs = append(sc.succs, wi<<6+bits.TrailingZeros64(wd))
				}
			}
			sClasses = append(sClasses, sc)
		}
		sClasses[ci].members = append(sClasses[ci].members, int32(a))
	}

	// Consumer side: keep s when s dominates a2.
	var pClasses []*predClass
	var pRows graph.RowInterner
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
		ci, fresh := pRows.Intern(rowBuf)
		if fresh {
			pClasses = append(pClasses, &predClass{row: pRows.Row(ci)})
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
