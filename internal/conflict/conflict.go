// Package conflict computes the conflict set C of section 4: a conservative
// approximation of the cross-processor interferences. C contains all
// unordered pairs of shared accesses (a1, a2) issued by different processors
// that may touch the same shared location with at least one write.
//
// Because MiniSplit programs are SPMD, every access statement is executed by
// every processor, so an access may conflict with another *statement* —
// including itself — whenever their subscripts can coincide on two different
// processors. The affine owner-computes tests in package ir remove the
// self-conflicts of distributed-array sweeps (without them, every parallel
// loop looks like a write-write race with itself and the delay set
// serializes everything).
//
// Synchronization constructs are modeled as conflicting accesses to their
// synchronization object: post writes its event, wait reads it, lock/unlock
// write their lock, and every barrier accesses a single global barrier
// object. This is exactly the paper's starting point ("It is correct to
// treat synchronization constructs as simply conflicting memory accesses"),
// which the synchronization analysis then sharpens.
package conflict

import (
	"math/bits"

	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/sem"
)

// Set is the computed conflict relation over a function's accesses. The
// symmetric adjacency is stored once, as bitset rows so the delay-set engine
// can reuse them word-parallel, at n/64 words per row instead of n bools;
// every reader iterates Row. A Set is immutable once Compute returns and
// may be read from any number of goroutines.
//
// Accesses are partitioned into similarity groups — same kind, same symbol,
// same index expression — and the conflict decision is made once per group
// pair: conflicts() inspects nothing else, so every member pair of a group
// pair (including an access paired with itself) gets the same answer. The
// grouping turns the Theta(n^2) pairwise sweep into O(g^2) decisions plus
// word-parallel row fills, and the group structure itself is exported
// (GroupOf, GroupMembers, GroupAdj) because the regionized delay engine
// compresses the quadratic conflict edge set through the same groups.
type Set struct {
	fn       *ir.Fn
	groupRow [][]uint64 // group -> shared expanded conflict row (n bits)
	rowBits  []int      // group -> popcount of groupRow
	n        int

	groupOf  []int32    // access -> group
	members  [][]uint64 // group -> member bitset
	groupAdj [][]int32  // group -> conflicting groups (ascending)
	ngroups  int
}

// Compute builds the conflict set for fn.
func Compute(fn *ir.Fn) *Set {
	n := len(fn.Accesses)
	s := &Set{fn: fn, n: n}

	// Partition into similarity groups.
	type key struct {
		kind ir.AccessKind
		sym  *sem.Symbol
		idx  string
	}
	gid := make(map[key]int32)
	s.groupOf = make([]int32, n)
	var reps []int
	for i, a := range fn.Accesses {
		k := key{kind: a.Kind, sym: a.Sym}
		if a.Index != nil {
			k.idx = fn.ExprString(a.Index)
		}
		id, ok := gid[k]
		if !ok {
			id = int32(len(reps))
			gid[k] = id
			reps = append(reps, i)
		}
		s.groupOf[i] = id
	}
	g := len(reps)
	s.ngroups = g
	w := graph.WordsFor(n)
	s.members = make([][]uint64, g)
	for i := range s.members {
		s.members[i] = make([]uint64, w)
	}
	for i := 0; i < n; i++ {
		graph.BitSet(s.members[s.groupOf[i]], i)
	}

	// One conflict decision per group pair.
	s.groupAdj = make([][]int32, g)
	for gi := 0; gi < g; gi++ {
		for gj := gi; gj < g; gj++ {
			if conflicts(fn, fn.Accesses[reps[gi]], fn.Accesses[reps[gj]]) {
				s.groupAdj[gi] = append(s.groupAdj[gi], int32(gj))
				if gj != gi {
					s.groupAdj[gj] = append(s.groupAdj[gj], int32(gi))
				}
			}
		}
	}

	// Row content is per group: the union of the conflicting groups'
	// member masks, stored once and shared by every member — O(g*n/64)
	// words total where the per-access matrix was O(n^2/64).
	s.groupRow = make([][]uint64, g)
	s.rowBits = make([]int, g)
	for gi := 0; gi < g; gi++ {
		row := make([]uint64, w)
		cnt := 0
		for _, gj := range s.groupAdj[gi] {
			for i, mw := range s.members[gj] {
				row[i] |= mw
			}
		}
		for _, rw := range row {
			cnt += bits.OnesCount64(rw)
		}
		s.groupRow[gi] = row
		s.rowBits[gi] = cnt
	}
	return s
}

// conflicts decides whether accesses a and b, executed by two different
// processors, may interfere.
func conflicts(fn *ir.Fn, a, b *ir.Access) bool {
	switch {
	case a.Kind == ir.AccBarrier || b.Kind == ir.AccBarrier:
		// All barrier episodes access the single global barrier object.
		return a.Kind == ir.AccBarrier && b.Kind == ir.AccBarrier
	case a.Kind.IsSync() != b.Kind.IsSync():
		// A data access never conflicts with a synchronization access:
		// they touch different objects (events/locks are not data).
		return false
	case a.Kind.IsSync():
		// post/wait conflict on the same event; lock/unlock on the same lock.
		if a.Sym != b.Sym {
			return false
		}
		eventLike := func(k ir.AccessKind) bool { return k == ir.AccPost || k == ir.AccWait }
		if eventLike(a.Kind) != eventLike(b.Kind) {
			return false
		}
		// wait/wait is a read-read pair on the event object: no conflict.
		if a.Kind == ir.AccWait && b.Kind == ir.AccWait {
			return false
		}
		return !indexDistinct(fn, a, b)
	default:
		// Data accesses: same symbol, at least one write, overlapping index.
		if a.Sym != b.Sym {
			return false
		}
		if a.Kind == ir.AccRead && b.Kind == ir.AccRead {
			return false
		}
		return !indexDistinct(fn, a, b)
	}
}

// indexDistinct reports whether the two accesses provably address distinct
// locations whenever executed by different processors.
func indexDistinct(fn *ir.Fn, a, b *ir.Access) bool {
	if a.Sym != nil && !a.Sym.IsArr {
		return false // scalars always collide across processors
	}
	return ir.DistinctAcrossProcs(fn, a.Index, b.Index)
}

// Conflicts reports whether accesses a and b conflict.
func (s *Set) Conflicts(a, b int) bool {
	return graph.BitGet(s.groupRow[s.groupOf[a]], b)
}

// Row returns a's conflict row as a shared bitset of graph.WordsFor(n)
// words; callers must not modify it. The row is physically shared with
// every access of a's similarity group.
func (s *Set) Row(a int) []uint64 { return s.groupRow[s.groupOf[a]] }

// Size returns the number of unordered conflict pairs, counted from the
// per-group row popcounts without materializing any per-access rows.
func (s *Set) Size() int {
	c := 0
	for a := 0; a < s.n; a++ {
		g := s.groupOf[a]
		c += s.rowBits[g]
		if graph.BitGet(s.groupRow[g], a) {
			c++ // self-conflicts sit on the diagonal only once
		}
	}
	return c / 2
}

// N returns the number of accesses.
func (s *Set) N() int { return s.n }

// NumGroups returns the number of similarity groups (accesses with the same
// kind, symbol, and index expression; the conflict decision is uniform
// across a group pair).
func (s *Set) NumGroups() int { return s.ngroups }

// GroupOf returns the similarity group of access a.
func (s *Set) GroupOf(a int) int32 { return s.groupOf[a] }

// GroupMembers returns group g's member set as a shared bitset row of
// graph.WordsFor(N()) words; callers must not modify it.
func (s *Set) GroupMembers(g int) []uint64 { return s.members[g] }

// GroupAdj returns the groups conflicting with group g (ascending, possibly
// including g itself). Every member of g conflicts with every member of
// each listed group — including itself when g lists itself.
func (s *Set) GroupAdj(g int) []int32 { return s.groupAdj[g] }
