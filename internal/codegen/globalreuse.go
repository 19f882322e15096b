package codegen

import (
	"math/bits"
	"slices"

	"repro/internal/ir"
	"repro/internal/target"
)

// Cross-block value reuse (section 7: "It may be possible to reuse a
// previously read value even when there are intervening global accesses,
// as long as it is legal to move the second get up to the point of the
// first one."). A forward must-availability dataflow over the target CFG
// computes which fetched values are valid in which locals at each block
// entry; a get of an already-available address is then deleted (same
// destination) or turned into a local copy (different destination).
//
// The Figure 9/10 cases fall out: after a barrier makes an array
// read-only for a phase, the phase's loop re-reads become one fetch, and
// post-wait-completed updates can be cached by later readers.
//
// Availability is killed by exactly what kills the block-local reuse:
// may-aliasing writes by this processor, acquire-like synchronization
// (wait, lock, barrier — another processor's write may become visible),
// and redefinition of the address's locals or the holding local.

// availKey identifies a cached fetch.
type availKey struct {
	accID int // representative get whose address this entry caches
	dst   ir.LocalID
}

type availEntry struct {
	acc *ir.Access
	dst ir.LocalID
}

// scanGets runs the availability transfer function over one block. The
// result lives in a buffer the next call reuses: a caller that keeps it
// copies it.
func (g *Generator) scanGets(in []availEntry, blk *target.Block) []availEntry {
	entries := append(g.scanBuf[:0], in...)
	fn := g.fn

	killLocal := func(id ir.LocalID) {
		keep := entries[:0]
		for _, e := range entries {
			if e.dst == id {
				continue
			}
			if e.acc.Index != nil && ir.ExprUsesLocal(e.acc.Index, id) {
				continue
			}
			keep = append(keep, e)
		}
		entries = keep
	}
	killAlias := func(acc *ir.Access) {
		keep := entries[:0]
		for _, e := range entries {
			if e.acc.Sym == acc.Sym && ir.MayAliasSameProc(fn, e.acc.Index, acc.Index, false) {
				continue
			}
			keep = append(keep, e)
		}
		entries = keep
	}
	killAll := func() { entries = entries[:0] }

	for _, s := range blk.Stmts {
		switch s := s.(type) {
		case *target.Get:
			killLocal(s.Dst)
			entries = append(entries, availEntry{acc: s.Acc, dst: s.Dst})
		case *target.Put:
			killAlias(s.Acc)
		case *target.Store:
			killAlias(s.Acc)
		case *target.SyncCtr:
			// no effect on availability
		case *target.Wrap:
			switch w := s.S.(type) {
			case *ir.Assign:
				killLocal(w.Dst)
			case *ir.SetElem:
				killLocal(w.Arr)
			case *ir.SyncOp:
				switch w.Acc.Kind {
				case ir.AccWait, ir.AccLock, ir.AccBarrier:
					killAll()
				}
			}
		}
	}
	g.scanBuf = entries
	return entries
}

// intersectAvail appends to dst the entries of a present in b (same
// representative address and destination), in a's order. dst may be
// a[:0]: the filter never writes ahead of what it reads.
func intersectAvail(dst, a, b []availEntry) []availEntry {
	for _, ea := range a {
		for _, eb := range b {
			if ea.dst == eb.dst && ea.acc.Sym == eb.acc.Sym && ir.ExprEqual(ea.acc.Index, eb.acc.Index) {
				dst = append(dst, ea)
				break
			}
		}
	}
	return dst
}

// availFlow is the availability fixpoint: each block's entry and exit
// lists, and whether any path from the entry has reached the block yet.
// A stored list is never written again, so lists may share backing arrays.
type availFlow struct {
	in, out [][]availEntry
	known   []bool
}

// meet intersects the exit lists of b's reached predecessors in
// predecessor order, so an entry keeps the first such predecessor's
// representative access. Unreached predecessors do not constrain
// (optimistic). With one reached predecessor the meet is that
// predecessor's stored list itself (owned false); otherwise it lives in a
// buffer the next call reuses.
func (g *Generator) meet(fl *availFlow, preds []int) (m []availEntry, owned, reached bool) {
	for _, p := range preds {
		switch {
		case !fl.known[p]:
		case !reached:
			m, reached = fl.out[p], true
		case owned:
			m = intersectAvail(m[:0], m, fl.out[p])
		default:
			m, owned = intersectAvail(g.meetBuf[:0], m, fl.out[p]), true
		}
	}
	if owned {
		g.meetBuf = m
	}
	return m, owned, reached
}

// availFixpoint solves the availability dataflow. It visits the blocks
// in the order of a round-robin over ascending block IDs that repeats
// until nothing changes, but skips every block whose meet cannot have
// changed: a block is queued only when a predecessor's exit list changes
// (or the predecessor is first reached), and a queued block is visited on
// the current sweep if its ID lies ahead, else on the next. The
// round-robin would find every skipped block unchanged, since scanGets is
// a function of (meet, block) alone and a block whose meet equals its
// recorded entry list is not rescanned either; so each visit sees the
// round-robin's state and every list comes out the same, order and
// representative included (rewriteWithAvail takes the first match).
// TestGlobalReuseMatchesRoundRobin holds the two equal.
func (g *Generator) availFixpoint() *availFlow {
	blocks := g.prog.Blocks
	nb := len(blocks)
	fl := &availFlow{in: make([][]availEntry, nb), out: make([][]availEntry, nb), known: make([]bool, nb)}
	preds := g.predecessors()
	queued := make([]uint64, (nb+63)/64)
	queueSuccs := func(b int) {
		forSuccs(blocks[b], func(s int) {
			if s != 0 { // the entry block's lists are fixed
				queued[s>>6] |= 1 << (s & 63)
			}
		})
	}
	// next returns the lowest queued block ID >= from, or -1.
	next := func(from int) int {
		for w := from >> 6; w < len(queued); w++ {
			word := queued[w]
			if w == from>>6 {
				word &^= 1<<(from&63) - 1
			}
			if word != 0 {
				return w<<6 | bits.TrailingZeros64(word)
			}
		}
		return -1
	}

	fl.known[0] = true
	fl.out[0] = slices.Clone(g.scanGets(nil, blocks[0]))
	g.work.ReuseScans++
	queueSuccs(0)
	for b := next(0); b >= 0; b = next(0) {
		g.work.ReuseSweeps++
		for ; b >= 0; b = next(b + 1) {
			queued[b>>6] &^= 1 << (b & 63)
			m, owned, reached := g.meet(fl, preds[b])
			if !reached || fl.known[b] && sameAvail(fl.in[b], m) {
				continue
			}
			if owned {
				m = slices.Clone(m)
			}
			fl.in[b] = m
			out := g.scanGets(m, blocks[b])
			g.work.ReuseScans++
			if !fl.known[b] || !sameAvail(fl.out[b], out) {
				fl.out[b] = slices.Clone(out)
				fl.known[b] = true
				queueSuccs(b)
			}
		}
	}
	return fl
}

// globalReuse runs the availability fixpoint and rewrites redundant gets.
func (g *Generator) globalReuse() {
	fl := g.availFixpoint()
	g.reportWork()
	// Rewrite pass: walk each block with its entry availability, applying
	// the same transfer but replacing redundant gets.
	for bi, b := range g.prog.Blocks {
		if !fl.known[bi] {
			continue
		}
		g.rewriteWithAvail(fl.in[bi], b)
	}
}

func sameAvail(a, b []availEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].dst != b[i].dst || a[i].acc != b[i].acc {
			return false
		}
	}
	return true
}

// rewriteWithAvail replays the transfer function over a block, replacing
// gets whose address is already cached.
func (g *Generator) rewriteWithAvail(in []availEntry, blk *target.Block) {
	entries := append(g.scanBuf[:0], in...)
	fn := g.fn

	killLocal := func(id ir.LocalID) {
		keep := entries[:0]
		for _, e := range entries {
			if e.dst == id {
				continue
			}
			if e.acc.Index != nil && ir.ExprUsesLocal(e.acc.Index, id) {
				continue
			}
			keep = append(keep, e)
		}
		entries = keep
	}
	killAlias := func(acc *ir.Access) {
		keep := entries[:0]
		for _, e := range entries {
			if e.acc.Sym == acc.Sym && ir.MayAliasSameProc(fn, e.acc.Index, acc.Index, false) {
				continue
			}
			keep = append(keep, e)
		}
		entries = keep
	}

	outStmts := make([]target.Stmt, 0, len(blk.Stmts))
	for _, s := range blk.Stmts {
		switch s := s.(type) {
		case *target.Get:
			replaced := false
			for _, e := range entries {
				if e.acc.Sym == s.Acc.Sym && ir.ExprEqual(e.acc.Index, s.Acc.Index) {
					g.infos[s.Acc.ID] = nil
					if e.dst == s.Dst {
						// The value is already in the right local.
						g.stats.GetsCached++
					} else {
						outStmts = append(outStmts, &target.Wrap{S: &ir.Assign{
							Dst: s.Dst,
							Src: &ir.LocalRef{ID: e.dst, T: fn.Locals[e.dst].Type},
						}})
						g.stats.GetsCached++
					}
					replaced = true
					break
				}
			}
			killLocal(s.Dst)
			if replaced {
				// A copy (if any) redefines s.Dst; entries were updated.
				entries = append(entries, availEntry{acc: s.Acc, dst: s.Dst})
				continue
			}
			entries = append(entries, availEntry{acc: s.Acc, dst: s.Dst})
			outStmts = append(outStmts, s)
		case *target.Put:
			killAlias(s.Acc)
			outStmts = append(outStmts, s)
		case *target.Store:
			killAlias(s.Acc)
			outStmts = append(outStmts, s)
		case *target.Wrap:
			switch w := s.S.(type) {
			case *ir.Assign:
				killLocal(w.Dst)
			case *ir.SetElem:
				killLocal(w.Arr)
			case *ir.SyncOp:
				switch w.Acc.Kind {
				case ir.AccWait, ir.AccLock, ir.AccBarrier:
					entries = entries[:0]
				}
			}
			outStmts = append(outStmts, s)
		default:
			outStmts = append(outStmts, s)
		}
	}
	g.scanBuf = entries
	blk.Stmts = outStmts
}

// GlobalReuse runs the global availability dataflow that rewrites gets of
// already-fetched locations into copies (section 7's communication reuse).
func (g *Generator) GlobalReuse() { g.globalReuse() }
