package codegen

import (
	"math/bits"
	"slices"

	"repro/internal/target"
)

// The availability fixpoint behind cse: which values are held in which
// locals at each block entry, over every path from the program entry.

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
