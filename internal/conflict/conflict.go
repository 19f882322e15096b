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
//
// A group is the accesses with one conflict row. Set exports the partition
// into groups (GroupOf, GroupMembers, GroupAdj), and every later pass that
// works by conflict reads that one partition.
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
// Compute decides the conflict once per syntactic key pair (same kind,
// symbol and index expression: conflicts() inspects nothing else), which
// turns the Theta(n^2) pairwise sweep into O(k^2) decisions plus
// word-parallel row fills, and then merges the keys with equal rows into
// one group. A row is therefore a union of whole groups, stored once per
// group; the delay engine compresses the quadratic conflict edge set
// through the groups, and syncanal's access classes key on them.
type Set struct {
	groupRow [][]uint64 // group -> shared expanded conflict row (n bits)
	rowBits  []int      // group -> popcount of groupRow
	n        int

	groupOf  []int32    // access -> group
	members  [][]uint64 // group -> member bitset
	groupAdj [][]int32  // group -> conflicting groups (ascending)
}

// Compute builds the conflict set for fn.
func Compute(fn *ir.Fn) *Set {
	n := len(fn.Accesses)
	w := graph.WordsFor(n)
	s := &Set{n: n, groupOf: make([]int32, n)}

	// Partition into syntactic keys; groupOf holds each access's key until
	// the keys merge.
	type key struct {
		kind ir.AccessKind
		sym  *sem.Symbol
		idx  string
	}
	kid := make(map[key]int32)
	var reps []int // key -> its first access
	for i, a := range fn.Accesses {
		k := key{kind: a.Kind, sym: a.Sym}
		if a.Index != nil {
			k.idx = fn.ExprString(a.Index)
		}
		id, ok := kid[k]
		if !ok {
			id = int32(len(reps))
			kid[k] = id
			reps = append(reps, i)
		}
		s.groupOf[i] = id
	}

	// One conflict decision per key pair; a key's row is the union of its
	// conflicting keys' member masks.
	keyMem, keyRow := make([][]uint64, len(reps)), make([][]uint64, len(reps))
	slab := make([]uint64, 2*len(reps)*w)
	for k := range reps {
		keyMem[k], keyRow[k] = slab[2*k*w:(2*k+1)*w], slab[(2*k+1)*w:(2*k+2)*w]
	}
	for i, k := range s.groupOf {
		graph.BitSet(keyMem[k], i)
	}
	for ki, a := range reps {
		for kj := ki; kj < len(reps); kj++ {
			if conflicts(fn, fn.Accesses[a], fn.Accesses[reps[kj]]) {
				for i := range keyRow[ki] {
					keyRow[ki][i] |= keyMem[kj][i]
					keyRow[kj][i] |= keyMem[ki][i]
				}
			}
		}
	}

	// Keys with equal rows merge into one group. Groups are numbered in
	// first-seen access order, as the keys are.
	var rows graph.RowInterner
	groupOfKey := make([]int32, len(reps))
	first := make([]int, 0, len(reps)) // group -> its first access
	for k, row := range keyRow {
		g, fresh := rows.Intern(row)
		groupOfKey[k] = g
		if fresh {
			first = append(first, reps[k])
		}
	}
	G := len(first)
	memWords := make([]uint64, G*w)
	for i, k := range s.groupOf {
		s.groupOf[i] = groupOfKey[k]
		graph.BitSet(memWords[int(s.groupOf[i])*w:], i)
	}
	s.members, s.groupRow, s.rowBits, s.groupAdj = make([][]uint64, G), make([][]uint64, G), make([]int, G), make([][]int32, G)
	var adj []int32 // every group's GroupAdj, back to back
	for g := range s.groupRow {
		row := rows.Row(int32(g))
		s.members[g], s.groupRow[g] = memWords[g*w:(g+1)*w:(g+1)*w], row
		for _, rw := range row {
			s.rowBits[g] += bits.OnesCount64(rw)
		}
		at := len(adj)
		for g2, a := range first {
			if graph.BitGet(row, a) {
				adj = append(adj, int32(g2))
			}
		}
		s.groupAdj[g] = adj[at:len(adj):len(adj)]
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
// every access of a's group.
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

// NumGroups returns the number of groups, the distinct conflict rows.
func (s *Set) NumGroups() int { return len(s.members) }

// GroupOf returns the group of access a: the accesses with a's conflict
// row.
func (s *Set) GroupOf(a int) int32 { return s.groupOf[a] }

// GroupMembers returns group g's member set as a shared bitset row of
// graph.WordsFor(N()) words; callers must not modify it.
func (s *Set) GroupMembers(g int) []uint64 { return s.members[g] }

// GroupAdj returns the groups conflicting with group g (ascending and
// duplicate-free, possibly including g itself). Every member of g
// conflicts with every member of each listed group — including itself when
// g lists itself.
func (s *Set) GroupAdj(g int) []int32 { return s.groupAdj[g] }
