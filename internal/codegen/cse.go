package codegen

import (
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/target"
)

// eliminateDeadGets removes gets whose destination is dead: a remote read
// has no effect any other processor can observe, so fetching a value
// nobody reads is pure waste. This runs on the freshly lowered program,
// where target statement positions still mirror the IR (Access.Blk/Idx),
// so the IR liveness answers the question directly.
func (g *Generator) eliminateDeadGets() {
	lv := dataflow.ComputeLiveness(g.fn)
	for _, blk := range g.prog.Blocks {
		out := make([]target.Stmt, 0, len(blk.Stmts))
		for _, s := range blk.Stmts {
			if get, ok := s.(*target.Get); ok {
				if !lv.LiveAfter(get.Acc.Blk, get.Acc.Idx, get.Dst) {
					g.infos[get.Acc.ID] = nil
					g.stats.GetsDead++
					continue
				}
			}
			out = append(out, s)
		}
		blk.Stmts = out
	}
}

// eliminate applies the communication-eliminating transformations of
// section 7 / Figure 11 within each basic block:
//
//   - value reuse: a second get of the same address becomes a local copy
//     of the first get's destination;
//   - value propagation: a get of an address this processor just wrote
//     forwards the written value locally;
//   - write-back: a put overwritten by a later put to the same address
//     (with no possible observer in between) is deleted.
//
// All three require that nothing between the two operations could change
// or expose the location: an intervening may-aliasing write invalidates
// reuse; an acquire-like synchronization (wait, lock, barrier) may order
// another processor's write before the second access; a release-like one
// (post, unlock, barrier) may expose the first put to another processor.
// Index expressions must also mean the same thing at both points, so any
// redefinition of a local used in the address invalidates the entry.
func (g *Generator) eliminate() {
	for _, blk := range g.prog.Blocks {
		g.eliminateInBlock(blk)
	}
}

type availGet struct {
	acc *ir.Access
	dst ir.LocalID
}

type availPut struct {
	acc  *ir.Access
	src  ir.Expr // forwardable only if Const or LocalRef
	live bool
}

func (g *Generator) eliminateInBlock(blk *target.Block) {
	fn := g.fn
	var gets []availGet
	var puts []availPut

	invalidateOnLocalWrite := func(id ir.LocalID) {
		keep := gets[:0]
		for _, a := range gets {
			if a.acc.Index != nil && ir.ExprUsesLocal(a.acc.Index, id) {
				continue
			}
			if a.dst == id {
				continue
			}
			keep = append(keep, a)
		}
		gets = keep
		for i := range puts {
			if !puts[i].live {
				continue
			}
			if puts[i].acc.Index != nil && ir.ExprUsesLocal(puts[i].acc.Index, id) {
				puts[i].live = false
			}
			if lr, ok := puts[i].src.(*ir.LocalRef); ok && lr.ID == id {
				puts[i].live = false
			}
		}
	}
	invalidateAcquire := func() {
		gets = gets[:0]
		for i := range puts {
			puts[i].live = false
		}
	}

	invalidateMayAlias := func(acc *ir.Access) {
		keep := gets[:0]
		for _, a := range gets {
			if a.acc.Sym == acc.Sym && ir.MayAliasSameProc(fn, a.acc.Index, acc.Index, false) {
				continue
			}
			keep = append(keep, a)
		}
		gets = keep
		for i := range puts {
			if puts[i].live && puts[i].acc.Sym == acc.Sym &&
				ir.MayAliasSameProc(fn, puts[i].acc.Index, acc.Index, false) {
				puts[i].live = false
			}
		}
	}

	out := make([]target.Stmt, 0, len(blk.Stmts))
	for _, s := range blk.Stmts {
		switch s := s.(type) {
		case *target.Get:
			// Value reuse: same address already fetched?
			reused := false
			for _, a := range gets {
				if a.acc.Sym == s.Acc.Sym && ir.ExprEqual(a.acc.Index, s.Acc.Index) {
					out = append(out, &target.Wrap{S: &ir.Assign{
						Dst: s.Dst,
						Src: &ir.LocalRef{ID: a.dst, T: fn.Locals[a.dst].Type},
					}})
					g.infos[s.Acc.ID] = nil
					g.stats.GetsEliminated++
					reused = true
					break
				}
			}
			// Value propagation: forward a just-written value.
			if !reused {
				for i := len(puts) - 1; i >= 0; i-- {
					p := puts[i]
					if !p.live || p.acc.Sym != s.Acc.Sym || !ir.ExprEqual(p.acc.Index, s.Acc.Index) {
						continue
					}
					if !forwardable(p.src) {
						break
					}
					out = append(out, &target.Wrap{S: &ir.Assign{Dst: s.Dst, Src: p.src}})
					g.infos[s.Acc.ID] = nil
					g.stats.GetsForwarded++
					reused = true
					break
				}
			}
			if reused {
				// The local copy writes s.Dst; invalidate entries using it.
				invalidateOnLocalWrite(s.Dst)
				continue
			}
			// A real remote read observes overlapping earlier puts, so
			// they can no longer be deleted by write-back.
			for i := range puts {
				if puts[i].live && puts[i].acc.Sym == s.Acc.Sym &&
					ir.MayAliasSameProc(fn, puts[i].acc.Index, s.Acc.Index, false) {
					puts[i].live = false
				}
			}
			// The get (re)defines its destination: invalidate entries
			// depending on it, then record the new availability.
			invalidateOnLocalWrite(s.Dst)
			gets = append(gets, availGet{acc: s.Acc, dst: s.Dst})
			out = append(out, s)
		case *target.Put:
			// Write-back: delete an earlier put to the identical address
			// if nothing could have observed it.
			for i := range puts {
				if puts[i].live && puts[i].acc.Sym == s.Acc.Sym &&
					ir.ExprEqual(puts[i].acc.Index, s.Acc.Index) {
					// Remove the earlier put from the emitted prefix.
					for j, prev := range out {
						if pp, ok := prev.(*target.Put); ok && pp.Acc.ID == puts[i].acc.ID {
							out = append(out[:j], out[j+1:]...)
							g.infos[puts[i].acc.ID] = nil
							g.stats.PutsEliminated++
							break
						}
					}
					puts[i].live = false
				}
			}
			invalidateMayAlias(s.Acc)
			out = append(out, s)
			puts = append(puts, availPut{acc: s.Acc, src: s.Src, live: true})
		case *target.Wrap:
			switch w := s.S.(type) {
			case *ir.Assign:
				invalidateOnLocalWrite(w.Dst)
			case *ir.SetElem:
				invalidateOnLocalWrite(w.Arr)
			case *ir.SyncOp:
				switch w.Acc.Kind {
				case ir.AccWait, ir.AccLock, ir.AccBarrier:
					// Acquire: remote writes may now be ordered before us.
					invalidateAcquire()
				case ir.AccPost, ir.AccUnlock:
					// Release: earlier puts become observable; keep gets.
					for i := range puts {
						puts[i].live = false
					}
				}
			}
			out = append(out, s)
		default:
			out = append(out, s)
		}
	}
	blk.Stmts = out
}

// forwardable reports whether an expression can be re-evaluated later with
// the same meaning without capturing it (constants and locals, which
// invalidation tracks).
func forwardable(e ir.Expr) bool {
	switch e.(type) {
	case *ir.Const, *ir.LocalRef:
		return true
	}
	return false
}

// EliminateDeadGets removes gets whose destination is never read. Part of
// the CSE family; runs before EliminateLocal.
func (g *Generator) EliminateDeadGets() { g.eliminateDeadGets() }

// EliminateLocal performs per-block redundancy elimination: duplicate gets
// collapse onto one counter and overwritten puts are dropped (write-back).
func (g *Generator) EliminateLocal() { g.eliminate() }
