package codegen

import (
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/target"
)

// cse is the block-local half of communication elimination: dead gets go
// first, while statement positions still mirror the IR, then each block's
// reuse, forwarding and write-back.
func (g *Generator) cse() {
	g.eliminateDeadGets()
	g.eliminate()
}

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

// availPut is a put the block-local pass may still delete (write-back) or
// forward (value propagation). Its entry's holding local is the put's
// source when that is a local.
type availPut struct {
	availEntry
	src  ir.Expr // forwardable only if Const or LocalRef
	live bool
}

// killPuts retires the puts statement effect e exposes or invalidates:
// every put at a release or acquire, and otherwise the ones e kills.
func (g *Generator) killPuts(puts []availPut, e effect) {
	all := e.acquires() || e.releases()
	for i := range puts {
		if p := &puts[i]; p.live && (all || g.kills(e, p.availEntry)) {
			p.live = false
		}
	}
}

func (g *Generator) eliminateInBlock(blk *target.Block) {
	gets := g.scanBuf[:0]
	var puts []availPut
	out := make([]target.Stmt, 0, len(blk.Stmts))
	for _, s := range blk.Stmts {
		e := effectOf(s)
		emit := s
		switch s := s.(type) {
		case *target.Get:
			var copied ir.Expr
			if x, ok := gets.lookup(s.Acc); ok {
				// Value reuse: same address already fetched.
				copied = &ir.LocalRef{ID: x.dst, T: g.fn.Locals[x.dst].Type}
				g.stats.GetsEliminated++
			} else if p := lastPut(puts, s.Acc); p != nil && forwardable(p.src) {
				// Value propagation: forward a just-written value.
				copied = p.src
				g.stats.GetsForwarded++
			}
			if copied != nil {
				// The copy defines s.Dst like the get did, but block-local
				// reuse does not record it as holding the address.
				emit = &target.Wrap{S: &ir.Assign{Dst: s.Dst, Src: copied}}
				g.infos[s.Acc.ID] = nil
				break
			}
			// A real remote read observes overlapping earlier puts, so
			// they can no longer be deleted by write-back.
			for i := range puts {
				if puts[i].live && g.mayAlias(puts[i].acc, s.Acc) {
					puts[i].live = false
				}
			}
		case *target.Put:
			// Write-back: delete an earlier put to the identical address
			// if nothing could have observed it.
			for i := range puts {
				if puts[i].live && sameAddress(puts[i].acc, s.Acc) {
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
		}
		gets = g.kill(gets, e)
		g.killPuts(puts, e)
		switch s := emit.(type) {
		case *target.Get:
			gets = append(gets, availEntry{acc: s.Acc, dst: s.Dst})
		case *target.Put:
			held := noLocal
			if lr, ok := s.Src.(*ir.LocalRef); ok {
				held = lr.ID
			}
			puts = append(puts, availPut{availEntry{s.Acc, held}, s.Src, true})
		}
		out = append(out, emit)
	}
	g.scanBuf = gets
	blk.Stmts = out
}

// lastPut returns the latest live put to acc's address, or nil.
func lastPut(puts []availPut, acc *ir.Access) *availPut {
	for i := len(puts) - 1; i >= 0; i-- {
		if p := &puts[i]; p.live && sameAddress(p.acc, acc) {
			return p
		}
	}
	return nil
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
