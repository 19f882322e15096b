// Package dataflow provides the standard sequential analysis the paper's
// code generator consumes ("the use-def graph for each processor's
// variable access (obtained through standard sequential compiler
// analysis)"): live variables over the mid-level IR, solved on per-block
// use/def bitsets with a predecessor worklist.
package dataflow

import (
	"repro/internal/graph"
	"repro/internal/ir"
)

// stmtDef returns the local a statement overwrites whole, if any. A
// SetElem updates one element — the array's other elements survive — so it
// defines nothing here; its array counts as a use instead (stmtUses).
func stmtDef(s ir.Stmt) (ir.LocalID, bool) {
	switch s := s.(type) {
	case *ir.Assign:
		return s.Dst, true
	case *ir.Load:
		return s.Dst, true
	}
	return 0, false
}

// accessIndex returns the index expression of the shared access a
// statement performs, or nil.
func accessIndex(s ir.Stmt) ir.Expr {
	switch s := s.(type) {
	case *ir.Load:
		return s.Acc.Index
	case *ir.Store:
		return s.Acc.Index
	case *ir.SyncOp:
		return s.Acc.Index
	}
	return nil
}

// stmtUses appends the locals read by a statement.
func stmtUses(s ir.Stmt, out []ir.LocalID) []ir.LocalID {
	if idx := accessIndex(s); idx != nil {
		out = ir.ExprLocals(idx, out)
	}
	switch s := s.(type) {
	case *ir.Assign:
		out = ir.ExprLocals(s.Src, out)
	case *ir.SetElem:
		out = append(out, s.Arr)
		out = ir.ExprLocals(s.Index, out)
		out = ir.ExprLocals(s.Src, out)
	case *ir.Store:
		out = ir.ExprLocals(s.Src, out)
	case *ir.Print:
		for _, a := range s.Args {
			if !a.IsStr {
				out = ir.ExprLocals(a.E, out)
			}
		}
	}
	return out
}

// stmtReads reports whether the statement reads the local: stmtUses for
// one local, without building the list.
func stmtReads(s ir.Stmt, l ir.LocalID) bool {
	if idx := accessIndex(s); idx != nil && ir.ExprUsesLocal(idx, l) {
		return true
	}
	switch s := s.(type) {
	case *ir.Assign:
		return ir.ExprUsesLocal(s.Src, l)
	case *ir.SetElem:
		return s.Arr == l || ir.ExprUsesLocal(s.Index, l) || ir.ExprUsesLocal(s.Src, l)
	case *ir.Store:
		return ir.ExprUsesLocal(s.Src, l)
	case *ir.Print:
		for _, a := range s.Args {
			if !a.IsStr && ir.ExprUsesLocal(a.E, l) {
				return true
			}
		}
	}
	return false
}

// termReads reports whether the terminator reads the local.
func termReads(t ir.Term, l ir.LocalID) bool {
	br, ok := t.(*ir.Branch)
	return ok && ir.ExprUsesLocal(br.Cond, l)
}

// Liveness is the result of live-variable analysis: one bitset row of
// locals per block, the set live at the block's exit.
type Liveness struct {
	Fn  *ir.Fn
	w   int      // words per row
	out []uint64 // len(Fn.Blocks) rows
}

// liveOut returns the locals live at the exit of block b.
func (lv *Liveness) liveOut(b int) []uint64 { return lv.out[b*lv.w : (b+1)*lv.w] }

// ComputeLiveness runs backward live-variable analysis to its fixpoint.
// Each block's transfer function is summarized once as use (read before
// any whole definition in the block) and def (wholly defined) bitsets, so
// in = use ∪ (out − def) is a word-parallel row operation; a block is
// re-evaluated only when a successor's live-in set grew.
func ComputeLiveness(fn *ir.Fn) *Liveness {
	nb := len(fn.Blocks)
	w := graph.WordsFor(len(fn.Locals))
	slab := make([]uint64, 4*nb*w)
	row := func(k, b int) []uint64 { return slab[(k*nb+b)*w : (k*nb+b+1)*w] }
	const use, def, in, out = 0, 1, 2, 3
	lv := &Liveness{Fn: fn, w: w, out: slab[out*nb*w:]}

	var buf []ir.LocalID
	for bi, b := range fn.Blocks {
		u, d := row(use, bi), row(def, bi)
		if br, ok := b.Term.(*ir.Branch); ok {
			buf = ir.ExprLocals(br.Cond, buf[:0])
			for _, l := range buf {
				graph.BitSet(u, int(l))
			}
		}
		for i := len(b.Stmts) - 1; i >= 0; i-- {
			s := b.Stmts[i]
			if l, ok := stmtDef(s); ok {
				graph.BitClear(u, int(l))
				graph.BitSet(d, int(l))
			}
			buf = stmtUses(s, buf[:0])
			for _, l := range buf {
				graph.BitSet(u, int(l))
			}
		}
	}

	preds := fn.Preds()
	// Every block is evaluated at least once, last block first: liveness
	// flows backward, so that order settles most rows on the first visit.
	work := make([]int32, nb)
	queued := make([]bool, nb)
	for i := range work {
		work[i] = int32(i)
		queued[i] = true
	}
	for len(work) > 0 {
		bi := int(work[len(work)-1])
		work = work[:len(work)-1]
		queued[bi] = false
		o := row(out, bi)
		for _, s := range fn.Blocks[bi].Succs() {
			for i, wd := range row(in, s.ID) {
				o[i] |= wd
			}
		}
		grew := false
		u, d, n := row(use, bi), row(def, bi), row(in, bi)
		for i := range n {
			v := u[i] | o[i]&^d[i]
			grew = grew || v != n[i]
			n[i] = v
		}
		if grew {
			for _, p := range preds[bi] {
				if !queued[p.ID] {
					queued[p.ID] = true
					work = append(work, int32(p.ID))
				}
			}
		}
	}
	return lv
}

// LiveAfter reports whether local is live just after statement idx of
// block b (i.e. its value may still be read): the first later statement of
// the block that touches it decides, else the terminator, else the block's
// live-out row.
func (lv *Liveness) LiveAfter(b *ir.Block, idx int, local ir.LocalID) bool {
	for _, s := range b.Stmts[idx+1:] {
		if stmtReads(s, local) {
			return true
		}
		if l, ok := stmtDef(s); ok && l == local {
			return false
		}
	}
	return termReads(b.Term, local) || graph.BitGet(lv.liveOut(b.ID), int(local))
}
