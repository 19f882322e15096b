package graph

import "math/bits"

// DenseFlow answers the exact "reachable while avoiding one vertex" query
// over a bitset adjacency matrix. Frontier expansion ORs whole adjacency
// rows — 64 edges per word operation — so a search costs O(|visited| *
// n/64) words instead of O(E) edge visits, which wins once the graph holds
// more than ~16 edges per node word.
//
// Not safe for concurrent use; give each worker its own.
type DenseFlow struct {
	out   *BitMatrix
	vis   []uint64
	stack []int32
}

// NewDenseFlow returns a scratch engine over the dense adjacency m.
func NewDenseFlow(m *BitMatrix) *DenseFlow {
	return &DenseFlow{out: m, vis: make([]uint64, WordsFor(m.N))}
}

// AvoidReach reports whether some node of the targets bitset is reachable
// from seeds when BOTH cut and avoid have their in-edges deleted (either
// may appear as a seed; a seed equal to cut is still expanded, matching
// the per-pair reference's treatment of the pair's own target b, while a
// seed equal to avoid must be excluded by the caller). A target bit is
// accepted the moment it is generated — before the avoid/cut interior
// filter — mirroring the reference search, which tests "is this a
// conflict predecessor of a" before discarding a node as interior.
func (f *DenseFlow) AvoidReach(seeds []int32, cut, avoid int, targets []uint64) bool {
	vis := f.vis
	for i := range vis {
		vis[i] = 0
	}
	st := f.stack[:0]
	for _, s := range seeds {
		if BitGet(targets, int(s)) {
			f.stack = st
			return true
		}
		if int(s) == avoid {
			continue
		}
		if !BitGet(vis, int(s)) {
			BitSet(vis, int(s))
			st = append(st, s)
		}
	}
	cw, cm := cut>>6, uint64(1)<<(uint(cut)&63)
	aw, am := avoid>>6, uint64(1)<<(uint(avoid)&63)
	for len(st) > 0 {
		u := st[len(st)-1]
		st = st[:len(st)-1]
		row := f.out.Row(int(u))
		for wi := range vis {
			nw := row[wi] &^ vis[wi]
			if nw == 0 {
				continue
			}
			if nw&targets[wi] != 0 {
				f.stack = st
				return true
			}
			if wi == int(cw) {
				nw &^= cm
			}
			if wi == int(aw) {
				nw &^= am
			}
			vis[wi] |= nw
			for ; nw != 0; nw &= nw - 1 {
				st = append(st, int32(wi<<6+bits.TrailingZeros64(nw)))
			}
		}
	}
	f.stack = st
	return false
}
