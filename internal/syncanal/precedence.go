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
// consumers that want bitsets. newPrecedence builds the retained
// per-access form (one n-bit row per access) — the differential oracle,
// which only this package's tests select (Options.perAccessR). Both answer
// Has/Row/Size identically.
type Precedence struct {
	n   int
	rel *graph.BitMatrix // per-access backing (oracle mode)
	rt  *graph.BitMatrix // lazy transpose of rel, for ColRow
	cp  *classPartition  // class-condensed backing (default mode)
}

// newPrecedence returns an empty per-access relation over n accesses.
func newPrecedence(n int) *Precedence {
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

// Step 4 is a boolean product. The dominator rule
//
//	[a1,b1] ∈ D1, a1 dom b1 (or b1 pdom a1)   producer side
//	[b1,b2] ∈ R
//	[b2,a2] ∈ D1, b2 dom a2                   consumer side
//	⇒ [a1,a2] ∈ R
//
// reads R ∪= PSᵀ · R · CS for two filter matrices that never change during
// refinement:
//
//	PS.Row(b1) = {a1 : [a1,b1] ∈ D1 ∧ (a1 dom b1 ∨ b1 pdom a1)}
//	CS.Row(b2) = {a2 : [b2,a2] ∈ D1 ∧ b2 dom a2}
//
// and refineR iterates that product with transitive closure to the least
// fixpoint. On the class backing one round is at most nc rectangles: R is
// constant on a class, so every b1 of class c contributes the same
// successor classes crel(c), and the round's whole yield through c is
// Hit_c x ⋃_{c' ∈ crel(c)} Q_c' with Hit_c = ⋃_{b ∈ c} PS.Row(b) and
// Q_c = ⋃_{b ∈ c} CS.Row(b). The union over c of those rectangles is
// exactly the set of pairs the rule derives from the current R — every
// derivation [a1,b1],[b1,b2],[b2,a2] has b1 in some class c, b2 in some
// c' ∈ crel(c), hence a1 ∈ Hit_c and a2 ∈ Q_c', and conversely every pair
// of such a rectangle has those witnesses. Applying them and closing again
// is therefore one step of the same monotone operator the per-pair rule
// iterates, and a monotone operator has one least fixpoint whatever the
// order or grouping of its applications.

// dominatorFilters builds PS and CS with one walk over each dominator tree;
// src is D1 in A-major form (D1.SourceMatrix).
//
// Producer side (a1, b1): every execution of a1 must be followed by b1,
// whose D1 delay then forces a1's completion. The paper states "a1
// dominates b1"; b1 postdominating a1 is the execution-order dual and
// covers producers inside loops (a write in a loop body never dominates the
// post after the loop, but the post does postdominate it). Consumer side
// (b2, a2): b2 must have executed (and its delay forced) before any
// execution of a2 — domination proper. A pair [a, b] of D1 with a dom b
// therefore lands on both sides: a ∈ PS.Row(b) and b ∈ CS.Row(a).
//
// The accesses that dominate b are those of the strict dominator-tree
// ancestors of b's block plus the earlier ones of b's own block, so a
// depth-first walk of the dominator tree that carries that set as a running
// mask yields b's dominating D1 sources as D1.TargetRow(b) & mask, a word at
// a time. The walk of the postdominator tree does the same for the sources:
// the accesses that postdominate a from another block are those of the
// strict ancestors of a's block, and src.Row(a) & mask, transposed, is the
// keep arm. In one block both domination tests are the index test, which
// the dominator walk already applies; a block the entry never reaches is a
// root of its own, with nothing above it, and a block that never reaches
// the exit is postdominated by nothing. Each walk's matrix is transposed in
// place into its filter, so the step holds two n x n matrices, not four.
func (res *Result) dominatorFilters(src *graph.BitMatrix) (ps, cs *graph.BitMatrix) {
	fn := res.Fn
	n := len(fn.Accesses)
	nb := len(fn.Blocks)
	accs := make([][]int32, nb) // block -> its accesses in statement order
	for _, b := range fn.Blocks {
		for _, st := range b.Stmts {
			if a := ir.AccessOf(st); a != nil {
				accs[b.ID] = append(accs[b.ID], int32(a.ID))
			}
		}
	}
	mask := make([]uint64, graph.WordsFor(n))
	// walk runs a depth-first walk of the tree below root (children of v:
	// kids[v]), calling visit(v) with mask holding the accesses of v's strict
	// ancestors; visit may add v's own, which leave the mask when the walk
	// leaves v's subtree.
	walk := func(root int, kids [][]int32, visit func(v int)) {
		stack := []int32{int32(root)}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v < 0 {
				if int(^v) < nb {
					for _, x := range accs[^v] {
						graph.BitClear(mask, int(x))
					}
				}
				continue
			}
			visit(int(v))
			stack = append(stack, ^v)
			stack = append(stack, kids[v]...)
		}
	}
	children := func(nodes int, parent func(v int) int) [][]int32 {
		kids := make([][]int32, nodes)
		for v := 0; v < nb; v++ {
			if p := parent(v); p >= 0 && p != v {
				kids[p] = append(kids[p], int32(v))
			}
		}
		return kids
	}

	cst := graph.NewBitMatrix(n) // cst.Row(a2) = {b2 : [b2,a2] ∈ D1 ∧ b2 dom a2}
	domVisit := func(v int) {
		for _, x := range accs[v] {
			row, t := cst.Row(int(x)), res.D1.TargetRow(int(x))
			for i := range row {
				row[i] = t[i] & mask[i]
			}
			graph.BitSet(mask, int(x))
		}
	}
	dkids := children(nb, res.Dom.Idom)
	for v := 0; v < nb; v++ {
		if v == 0 || res.Dom.Idom(v) < 0 {
			walk(v, dkids, domVisit)
		}
	}

	keep := graph.NewBitMatrix(n) // keep.Row(a1) = {b1 : [a1,b1] ∈ D1 ∧ b1 strictly pdom a1}
	exit := res.PDom.ExitID()
	walk(exit, children(exit+1, res.PDom.Ipdom), func(v int) {
		if v == exit {
			return
		}
		for _, x := range accs[v] {
			row, s := keep.Row(int(x)), src.Row(int(x))
			for i := range row {
				row[i] = s[i] & mask[i]
			}
		}
		for _, x := range accs[v] {
			graph.BitSet(mask, int(x))
		}
	})

	keep.TransposeInPlace()
	for b := 0; b < n; b++ {
		orRow(keep.Row(b), cst.Row(b))
	}
	cst.TransposeInPlace()
	return keep, cst
}

// refineR iterates the dominator rule and transitive closure until fixpoint
// (step 4 of section 5.1), dispatching on the backing. src is D1 in
// A-major form.
func (res *Result) refineR(src *graph.BitMatrix) {
	ps, cs := res.dominatorFilters(src)
	if res.R.cp != nil {
		res.refineRClass(ps, cs)
	} else {
		res.refineRPerAccess(ps, cs)
	}
}

// refineRPerAccess runs the fixpoint on the per-access oracle backing, as
// the rule reads: for each producer a1, u is the union of the R rows of its
// b1's — every b2 some b1 precedes — and a1 then precedes every consumer
// of every such b2. Rows grow in place during the scan, which a monotone
// fixpoint tolerates.
func (res *Result) refineRPerAccess(ps, cs *graph.BitMatrix) {
	rel := res.R.rel
	pst := ps.Transpose() // pst.Row(a1) = {b1 : a1 ∈ PS.Row(b1)}
	u := make([]uint64, rel.W)
	for {
		res.R.transClose()
		added := false
		for a1 := 0; a1 < rel.N; a1++ {
			for i := range u {
				u[i] = 0
			}
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
			return
		}
		res.R.rt = nil
	}
}

// orRow ORs src into dst and reports whether dst gained a bit.
func orRow(dst, src []uint64) bool {
	grew := false
	for i, wd := range src {
		if wd&^dst[i] != 0 {
			dst[i] |= wd
			grew = true
		}
	}
	return grew
}

// refineRClass runs the same fixpoint on the class-condensed backing, one
// round per closure. Each round coalesces and closes the partition, then —
// on that frozen partition — gathers Hit_c and Q_c with one row-OR per
// access and side and forms each class's rectangle Hit_c x ⋃_{c' ∈ crel(c)}
// Q_c'. The rectangles are applied after the scan: addRect splits classes,
// and the gathered rows are indexed by the class ids of the partition they
// were gathered on. addRectBits drops a rectangle R already contains
// instead of re-applying it, which would fragment the partition for no new
// pair and leave a fixpoint state that is not the coalesced one.
func (res *Result) refineRClass(ps, cs *graph.BitMatrix) {
	cp := res.R.cp
	n, w := cp.n, cp.w
	for {
		// Coalescing before each closure keeps the class count at the
		// number of distinct R rows and columns; the closure that follows
		// is cubic in it.
		cp.coalesce()
		closed := cp.transClose()
		nc, wc := cp.nc, cp.wc()
		slab := make([]uint64, 3*nc*w) // a few rounds of ≤ 3·nc rows each
		hit := func(c int) []uint64 { return slab[c*w : (c+1)*w] }
		q := func(c int) []uint64 { return slab[(nc+c)*w : (nc+c+1)*w] }
		qu := func(c int) []uint64 { return slab[(2*nc+c)*w : (2*nc+c+1)*w] }
		for b := 0; b < n; b++ {
			c := int(cp.classOf[b])
			orRow(hit(c), ps.Row(b))
			orRow(q(c), cs.Row(b))
		}
		for c := 0; c < nc; c++ {
			if !anyBit(hit(c)) {
				continue
			}
			for wi, wd := range cp.rows[c][:wc] {
				for ; wd != 0; wd &= wd - 1 {
					orRow(qu(c), q(wi<<6+bits.TrailingZeros64(wd)))
				}
			}
		}
		added := false
		for c := 0; c < nc; c++ {
			if cp.addRectBits(hit(c), qu(c)) {
				added = true
			}
		}
		// The scan derived every pair the rule yields from the closed
		// relation, so a round that adds none leaves R closed and
		// saturated: the fixpoint. Rows this round's closure changed may
		// have become equal; one more coalesce leaves the state coalesced
		// as well as closed.
		if !added {
			if closed {
				cp.coalesce()
			}
			return
		}
	}
}

func anyBit(row []uint64) bool {
	for _, wd := range row {
		if wd != 0 {
			return true
		}
	}
	return false
}
