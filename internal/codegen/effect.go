package codegen

import (
	"fmt"
	"slices"

	"repro/internal/ir"
	"repro/internal/sem"
	"repro/internal/target"
)

// The statement-effect model. Sections 6 and 7 move and delete
// communication under one set of facts about each target statement: the
// shared access it makes and the local it defines (effectOf), whether that
// access writes, acquires or releases (effect's methods), and the locals
// it reads (appendReads). Sync motion, initiation back-motion, the
// section 7 walk and loop-invariant motion all read those facts here, the
// same-processor ordering rule from sameProcOrdered, and cached values die
// by kill's rules alone.

// noLocal stands for no local: what an effect defines when it defines
// none, what a put holds when its source is no local.
const noLocal ir.LocalID = -1

// effect is what the passes ask of every statement they cross: its shared
// access and the local it defines. appendReads lists the locals it reads,
// which fewer questions need.
type effect struct {
	acc *ir.Access // the shared access the statement makes; nil if none
	def ir.LocalID // the local it (re)defines, or noLocal
}

// effectOf classifies s. It panics on a statement the model does not
// know, so a new statement kind cannot slip past the passes unclassified.
func effectOf(s target.Stmt) effect {
	switch s := s.(type) {
	case *target.Get:
		return effect{s.Acc, s.Dst}
	case *target.Put:
		return effect{s.Acc, noLocal}
	case *target.Store:
		return effect{s.Acc, noLocal}
	case *target.SyncCtr:
		return effect{nil, noLocal}
	case *target.Wrap:
		switch w := s.S.(type) {
		case *ir.Assign:
			return effect{nil, w.Dst}
		case *ir.SetElem:
			return effect{nil, w.Arr}
		case *ir.Print:
			return effect{nil, noLocal}
		case *ir.SyncOp:
			return effect{w.Acc, noLocal}
		}
		panic(fmt.Sprintf("codegen: no effect for wrapped %T", s.S))
	}
	panic(fmt.Sprintf("codegen: no effect for %T", s))
}

// appendReads appends to buf the locals s reads, once per occurrence: its
// access's index, then its operands. A SetElem reads the array it updates.
func appendReads(s target.Stmt, buf []ir.LocalID) []ir.LocalID {
	switch s := s.(type) {
	case *target.Get:
		return ir.ExprLocals(s.Acc.Index, buf)
	case *target.Put:
		return ir.ExprLocals(s.Src, ir.ExprLocals(s.Acc.Index, buf))
	case *target.Store:
		return ir.ExprLocals(s.Src, ir.ExprLocals(s.Acc.Index, buf))
	case *target.Wrap:
		switch w := s.S.(type) {
		case *ir.Assign:
			return ir.ExprLocals(w.Src, buf)
		case *ir.SetElem:
			return ir.ExprLocals(w.Src, ir.ExprLocals(w.Index, append(buf, w.Arr)))
		case *ir.Print:
			for _, a := range w.Args {
				if !a.IsStr {
					buf = ir.ExprLocals(a.E, buf)
				}
			}
		case *ir.SyncOp:
			return ir.ExprLocals(w.Acc.Index, buf)
		}
	}
	return buf
}

// writes reports whether the statement writes shared data (a put or a
// store).
func (e effect) writes() bool { return e.acc != nil && e.acc.Kind == ir.AccWrite }

// acquires reports whether the statement is an acquire (wait, lock,
// barrier): another processor's write may be ordered before what follows.
func (e effect) acquires() bool {
	if e.acc == nil {
		return false
	}
	k := e.acc.Kind
	return k == ir.AccWait || k == ir.AccLock || k == ir.AccBarrier
}

// releases reports whether the statement is a release (post, unlock,
// barrier): this processor's earlier writes may be observed after it.
func (e effect) releases() bool {
	if e.acc == nil {
		return false
	}
	k := e.acc.Kind
	return k == ir.AccPost || k == ir.AccUnlock || k == ir.AccBarrier
}

// reads reports whether s reads local id, using g's scratch buffer.
func (g *Generator) reads(s target.Stmt, id ir.LocalID) bool {
	g.readBuf = appendReads(s, g.readBuf[:0])
	return slices.Contains(g.readBuf, id)
}

// mayAlias reports whether two of this processor's accesses to shared
// data may touch the same element; for one access, in two different
// executions of it.
func (g *Generator) mayAlias(a, b *ir.Access) bool {
	return a.Sym == b.Sym && ir.MayAliasSameProc(g.fn, a.Index, b.Index, a.ID == b.ID)
}

// sameProcOrdered reports whether this processor's accesses a, then b,
// must stay in order: both touch shared data, possibly the same element,
// and they are not both reads.
func (g *Generator) sameProcOrdered(a, b *ir.Access) bool {
	return a.Kind.IsData() && b.Kind.IsData() &&
		(a.Kind == ir.AccWrite || b.Kind == ir.AccWrite) && g.mayAlias(a, b)
}

// sameAddress reports whether two accesses name the same address wherever
// both are evaluated with the same locals.
func sameAddress(a, b *ir.Access) bool {
	return a.Sym == b.Sym && ir.ExprEqual(a.Index, b.Index)
}

// availEntry is one value this processor holds for an address: the get
// acc fetched it into dst, or the put acc wrote it (put set; dst is the
// put's source when that is a local, else noLocal).
type availEntry struct {
	acc *ir.Access
	dst ir.LocalID
	put *target.Put
}

// availList is an availability list: the values this processor still
// holds, in the order it came to hold them.
type availList []availEntry

// lookup returns the first entry for acc's address. An address has at
// most one put entry and then no get entry: a put kills every entry it may
// alias, and a real get of its address kills the put entry.
func (l availList) lookup(acc *ir.Access) (availEntry, bool) {
	for _, x := range l {
		if sameAddress(x.acc, acc) {
			return x, true
		}
	}
	return availEntry{}, false
}

// kills reports whether statement effect e, if it is no acquire,
// invalidates entry x. Any entry dies when e writes shared data that may
// alias x's address, or redefines x's holding local or a local x's
// address reads. A put entry also dies at a release, which may expose the
// put to another processor, and at a read that may alias it, which
// observes it: write-back may then no longer delete it.
//
// Every rewrite an entry allows moves an access past what lies between:
// reuse and forwarding move a later read of x's address up to x, and
// write-back moves x's put down to the later put. Such a move is legal
// only if the delay set orders nothing it crosses against the moved
// access, so an access e makes also kills x when D orders it before a
// read of x's address, and a put entry when D orders the put before it.
func (g *Generator) kills(e effect, x availEntry) bool {
	if e.def != noLocal && (x.dst == e.def || ir.ExprUsesLocal(x.acc.Index, e.def)) {
		return true
	}
	c := e.acc
	switch {
	case c == nil:
		return false
	case e.writes() && g.mayAlias(x.acc, c):
		return true
	case g.orderedBeforeRead(c, x.acc):
		return true
	case x.put != nil:
		return e.releases() || c.Kind == ir.AccRead && g.mayAlias(x.acc, c) || g.delayOrders(x.acc.ID, c.ID)
	}
	return false
}

// orderedBeforeRead reports whether the delay set orders c before some
// read of acc's address.
func (g *Generator) orderedBeforeRead(c, acc *ir.Access) bool {
	for _, b := range g.readsAt(acc) {
		if g.delayOrders(c.ID, b) {
			return true
		}
	}
	return false
}

// readsAt returns the IDs of the reads of acc's address. The table behind
// it is built on first use: each data access joins the group of the first
// access of its symbol that names the same address.
func (g *Generator) readsAt(acc *ir.Access) []int {
	if g.addrReads == nil {
		accs := g.fn.Accesses
		g.addrReads = make([][]int, len(accs))
		heads := map[*sem.Symbol][]*ir.Access{}
		head := make([]int, len(accs)) // by access ID: its group's first access
		for _, a := range accs {
			if !a.Kind.IsData() {
				continue
			}
			i := slices.IndexFunc(heads[a.Sym], func(h *ir.Access) bool { return ir.ExprEqual(h.Index, a.Index) })
			if i < 0 {
				heads[a.Sym] = append(heads[a.Sym], a)
				head[a.ID] = a.ID
			} else {
				head[a.ID] = heads[a.Sym][i].ID
			}
			if a.Kind == ir.AccRead {
				g.addrReads[head[a.ID]] = append(g.addrReads[head[a.ID]], a.ID)
			}
		}
		for _, a := range accs {
			if a.Kind.IsData() {
				g.addrReads[a.ID] = g.addrReads[head[a.ID]]
			}
		}
	}
	return g.addrReads[acc.ID]
}

// kill drops, in place, the entries statement effect e invalidates: all of
// them at an acquire, where another processor's write may become visible,
// and otherwise the ones e kills.
func (g *Generator) kill(l availList, e effect) availList {
	if e.acquires() {
		return l[:0]
	}
	if e.def == noLocal && e.acc == nil {
		return l
	}
	keep := l[:0]
	for _, x := range l {
		if !g.kills(e, x) {
			keep = append(keep, x)
		}
	}
	return keep
}
