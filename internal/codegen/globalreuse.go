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
// Availability dies by the kill rules (kill, in effect.go) that
// block-local reuse applies too: may-aliasing writes by this processor,
// acquire-like synchronization (wait, lock, barrier — another processor's
// write may become visible), and redefinition of the address's locals or
// the holding local.

// transfer runs the availability transfer function over blk from the
// entry list in: each statement kills what it invalidates, and a get then
// caches its own fetch. With rewrite set it also replaces each get whose
// address is already cached: by a local copy, or by nothing when the value
// already sits in the get's destination. The result lives in a buffer the
// next call reuses: a caller that keeps it copies it.
func (g *Generator) transfer(in []availEntry, blk *target.Block, rewrite bool) []availEntry {
	l := append(g.scanBuf[:0], in...)
	var out []target.Stmt
	if rewrite {
		out = make([]target.Stmt, 0, len(blk.Stmts))
	}
	for _, s := range blk.Stmts {
		e := effectOf(s)
		get, isGet := s.(*target.Get)
		keep := true
		if isGet && rewrite {
			if x, ok := l.lookup(get.Acc); ok {
				g.infos[get.Acc.ID] = nil
				g.stats.GetsCached++
				if x.dst != get.Dst {
					out = append(out, &target.Wrap{S: &ir.Assign{
						Dst: get.Dst,
						Src: &ir.LocalRef{ID: x.dst, T: g.fn.Locals[x.dst].Type},
					}})
				}
				keep = false
			}
		}
		l = g.kill(l, e)
		if isGet {
			l = append(l, availEntry{acc: get.Acc, dst: get.Dst})
		}
		if rewrite && keep {
			out = append(out, s)
		}
	}
	g.scanBuf = l
	if rewrite {
		blk.Stmts = out
	}
	return l
}

// intersectAvail appends to dst the entries of a present in b (same
// representative address and destination), in a's order. dst may be
// a[:0]: the filter never writes ahead of what it reads.
func intersectAvail(dst, a, b []availEntry) []availEntry {
	for _, ea := range a {
		for _, eb := range b {
			if ea.dst == eb.dst && sameAddress(ea.acc, eb.acc) {
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
// round-robin would find every skipped block unchanged, since transfer is
// a function of (meet, block) alone and a block whose meet equals its
// recorded entry list is not rescanned either; so each visit sees the
// round-robin's state and every list comes out the same, order and
// representative included (the rewriting transfer takes the first match).
// TestGlobalReuseMatchesRoundRobin holds the two equal.
func (g *Generator) availFixpoint() *availFlow {
	blocks := g.prog.Blocks
	nb := len(blocks)
	fl := &availFlow{in: make([][]availEntry, nb), out: make([][]availEntry, nb), known: make([]bool, nb)}
	preds := g.predecessors()
	queued := make([]uint64, (nb+63)/64)
	queueSuccs := func(b int) {
		blocks[b].ForSuccs(func(s *target.Block) {
			if s.ID != 0 { // the entry block's lists are fixed
				queued[s.ID>>6] |= 1 << (s.ID & 63)
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
	fl.out[0] = slices.Clone(g.transfer(nil, blocks[0], false))
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
			out := g.transfer(m, blocks[b], false)
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
		g.transfer(fl.in[bi], b, true)
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
