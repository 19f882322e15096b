package syncanal

import (
	"math/bits"

	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/sem"
)

// Steps 3 and 4 of section 5.1: the precedence relation R, its seeding from
// post->wait pairs and barriers, and its closure under the dominator rule
// and transitivity. R is stored class-condensed (Precedence, classes.go);
// its differential oracle, one n-bit row per access, lives in the tests
// (precedence_oracle_test.go) and derives R from the same seeds and the
// same dominator filters.

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
// edge — which is what lets the class-condensed relation start from one
// universal class and only split where the structure distinguishes members.
// (A reflexive rectangle {a} x {a} forces a into a singleton class,
// reproducing the paper's per-barrier behavior exactly.) The rectangles go
// to addRect, R's own in a run and the per-access oracle's in the tests
// (precedence_oracle_test.go).
func seedPrecedence(fn *ir.Fn, opts Options, addRect func(A, B []int32)) {
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
			addRect(ev.posts, ev.waits)
		}
	}
	if !opts.NoBarrier {
		for _, a := range fn.Accesses {
			if a.Kind == ir.AccBarrier {
				addRect([]int32{int32(a.ID)}, []int32{int32(a.ID)})
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
// and Precedence.refine iterates that product with transitive closure to
// the least fixpoint. On the class partition one round is at most nc
// rectangles: R is constant on a class, so every b1 of class c contributes
// the same successor classes crel(c), and the round's whole yield through c
// is
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

// refine iterates the dominator rule, over the filters PS and CS, and
// transitive closure until fixpoint (step 4 of section 5.1), one round per
// closure. Each round coalesces and closes the partition, then —
// on that frozen partition — gathers Hit_c and Q_c with one row-OR per
// access and side and forms each class's rectangle Hit_c x ⋃_{c' ∈ crel(c)}
// Q_c'. The rectangles are applied after the scan: addRect splits classes,
// and the gathered rows are indexed by the class ids of the partition they
// were gathered on. addRectBits drops a rectangle R already contains
// instead of re-applying it, which would fragment the partition for no new
// pair and leave a fixpoint state that is not the coalesced one.
func (p *Precedence) refine(ps, cs *graph.BitMatrix) {
	n, w := p.n, p.w
	for {
		// Coalescing before each closure keeps the class count at the
		// number of distinct R rows and columns; the closure that follows
		// is cubic in it.
		p.coalesce()
		closed := p.transClose()
		nc, wc := p.nc, p.wc()
		slab := make([]uint64, 3*nc*w) // a few rounds of ≤ 3·nc rows each
		hit := func(c int) []uint64 { return slab[c*w : (c+1)*w] }
		q := func(c int) []uint64 { return slab[(nc+c)*w : (nc+c+1)*w] }
		qu := func(c int) []uint64 { return slab[(2*nc+c)*w : (2*nc+c+1)*w] }
		for b := 0; b < n; b++ {
			c := int(p.classOf[b])
			orRow(hit(c), ps.Row(b))
			orRow(q(c), cs.Row(b))
		}
		for c := 0; c < nc; c++ {
			if !anyBit(hit(c)) {
				continue
			}
			for wi, wd := range p.rows[c][:wc] {
				for ; wd != 0; wd &= wd - 1 {
					orRow(qu(c), q(wi<<6+bits.TrailingZeros64(wd)))
				}
			}
		}
		added := false
		for c := 0; c < nc; c++ {
			if p.addRectBits(hit(c), qu(c)) {
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
				p.coalesce()
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
