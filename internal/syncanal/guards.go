package syncanal

import (
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/ir"
)

// Section 5.3: lock guards. For a pair of accesses guarded by the same
// lock, other accesses guarded by that lock cannot appear in the violation
// sequence; orient.go turns the guard sets computed here into the
// shared-lock arm of the removal predicate.

// lockKeys interns the lock keys — the lock symbol, plus the printed index
// for a lock array element — of a function's lock and unlock accesses, in
// first-seen access order. Every guard set below is a bitset over these ids.
type lockKeys struct {
	names []string // key id -> key
	of    []int32  // access id -> key id of a lock or unlock access, -1 otherwise
}

func internLockKeys(fn *ir.Fn) lockKeys {
	k := lockKeys{of: make([]int32, len(fn.Accesses))}
	ids := make(map[string]int32)
	for _, a := range fn.Accesses {
		k.of[a.ID] = -1
		if a.Kind != ir.AccLock && a.Kind != ir.AccUnlock {
			continue
		}
		name := accessKey(fn, a)
		id, ok := ids[name]
		if !ok {
			id = int32(len(k.names))
			ids[name] = id
			k.names = append(k.names, name)
		}
		k.of[a.ID] = id
	}
	return k
}

// keySets holds one lock-key bitset of kw words per access.
type keySets struct {
	kw    int
	words []uint64
}

func newKeySets(n, keys int) keySets {
	kw := graph.WordsFor(keys)
	return keySets{kw: kw, words: make([]uint64, n*kw)}
}

func (s keySets) row(x int) []uint64 { return s.words[x*s.kw : (x+1)*s.kw] }

// byAccess renders the sets as Result.Guards: access ID -> set of lock
// keys, holding only the accesses with a non-empty set.
func (s keySets) byAccess(keys lockKeys) map[int]map[string]bool {
	out := make(map[int]map[string]bool)
	if s.kw == 0 {
		return out
	}
	for x := 0; x < len(s.words)/s.kw; x++ {
		for wi, wd := range s.row(x) {
			for ; wd != 0; wd &= wd - 1 {
				if out[x] == nil {
					out[x] = make(map[string]bool)
				}
				out[x][keys.names[wi<<6+bits.TrailingZeros64(wd)]] = true
			}
		}
	}
	return out
}

// computeGuards implements the guarded-access definition of section 5.3,
// returning each access's guard set over the interned lock keys. src is D1
// in A-major form (D1.SourceMatrix), which the confinement sweeps read.
//
// An access a is guarded by lock l when:
//  1. a is dominated by a lock(l) operation b1 with no intervening
//     unlock(l) (we require l to be must-held at a);
//  2. a dominates an unlock(l) operation b2;
//  3. a's execution is confined to the critical section: b1's completion
//     is forced before a ([b1, a] through D1 ∪ def-use) and a's completion
//     before b2 ([a, b2] likewise). The def-use component covers reads
//     whose completion is forced by the first use of their value (as in a
//     read-modify-write), which D1 alone does not record.
func computeGuards(res *Result, src *graph.BitMatrix) (lockKeys, keySets) {
	fn := res.Fn
	keys := internLockKeys(fn)
	held := mustHeldLocks(fn, keys)
	guards := newKeySets(len(fn.Accesses), len(keys.names))
	if !anyBit(held.words) {
		// Lock-free program: nothing is guarded, so the confinement graph
		// never needs to be built.
		return keys, guards
	}
	locks := make([][]*ir.Access, len(keys.names))
	unlocks := make([][]*ir.Access, len(keys.names))
	for _, c := range fn.Accesses {
		switch c.Kind {
		case ir.AccLock:
			locks[keys.of[c.ID]] = append(locks[keys.of[c.ID]], c)
		case ir.AccUnlock:
			unlocks[keys.of[c.ID]] = append(unlocks[keys.of[c.ID]], c)
		}
	}
	confined := newConfinement(res, src)
	for _, a := range fn.Accesses {
		for wi, wd := range held.row(a.ID) {
			for ; wd != 0; wd &= wd - 1 {
				l := wi<<6 + bits.TrailingZeros64(wd)
				b1 := dominatingLock(res, a, locks[l])
				if b1 == nil || !confined.follows(b1.ID, a.ID) {
					continue
				}
				b2 := dominatedUnlock(res, a, unlocks[l])
				if b2 == nil || !confined.precedes(a.ID, b2.ID) {
					continue
				}
				graph.BitSet(guards.row(a.ID), l)
			}
		}
	}
	return keys, guards
}

// confinement answers the two questions the guard test asks — does b1
// reach a, does a reach b2 — over the graph of D1 edges plus direct
// def-use edges (a Load's destination local used in a later access's
// expressions forces the load's completion before that access initiates —
// an operand dependence the hardware enforces unconditionally). b1 is
// always a lock and b2 an unlock, so one forward sweep per distinct lock
// access and one backward sweep per distinct unlock access, memoized,
// answer every query; no closure of the whole graph is built.
type confinement struct {
	succ, pred func(u int) []uint64 // D1 targets / sources of u
	use, def   [][]int32            // def-use edges and their reverse
	from, into map[int][]uint64     // memoized sweeps, by start access
	queue      []int32
}

func newConfinement(res *Result, src *graph.BitMatrix) *confinement {
	fn := res.Fn
	n := len(fn.Accesses)
	c := &confinement{
		use: make([][]int32, n), def: make([][]int32, n),
		from: make(map[int][]uint64), into: make(map[int][]uint64),
	}
	c.succ, c.pred = src.Row, res.D1.TargetRow
	// Def-use edges come from a local -> reading-accesses index, so edge
	// collection is linear in the number of uses instead of loads x accesses.
	users := make(map[ir.LocalID][]int32)
	var locals []ir.LocalID
	for _, a := range fn.Accesses {
		locals = accessLocals(a, locals[:0])
		for _, l := range locals {
			users[l] = append(users[l], int32(a.ID))
		}
	}
	for _, blk := range fn.Blocks {
		for _, s := range blk.Stmts {
			ld, ok := s.(*ir.Load)
			if !ok {
				continue
			}
			for _, cid := range users[ld.Dst] {
				if int(cid) != ld.Acc.ID {
					c.use[ld.Acc.ID] = append(c.use[ld.Acc.ID], cid)
					c.def[cid] = append(c.def[cid], int32(ld.Acc.ID))
				}
			}
		}
	}
	return c
}

// follows reports whether some path of one or more edges leads from the
// lock b1 to a; precedes, from a to the unlock b2. A direct D1 edge — the
// usual case, a lock or unlock endpoint making the pair a D1 candidate —
// answers without a sweep.
func (c *confinement) follows(b1, a int) bool {
	return graph.BitGet(c.succ(b1), a) || graph.BitGet(c.sweep(c.from, b1, c.succ, c.use), a)
}

func (c *confinement) precedes(a, b2 int) bool {
	return graph.BitGet(c.pred(b2), a) || graph.BitGet(c.sweep(c.into, b2, c.pred, c.def), a)
}

// sweep is one memoized word-parallel BFS from start over the D1 rows plus
// the listed def-use edges. start itself is marked only when a cycle comes
// back to it.
func (c *confinement) sweep(memo map[int][]uint64, start int, rows func(int) []uint64, extra [][]int32) []uint64 {
	if vis, ok := memo[start]; ok {
		return vis
	}
	vis := make([]uint64, len(rows(start)))
	q := append(c.queue[:0], int32(start))
	for i := 0; i < len(q); i++ {
		x := int(q[i])
		for wi, wd := range rows(x) {
			nw := wd &^ vis[wi]
			vis[wi] |= nw
			for ; nw != 0; nw &= nw - 1 {
				q = append(q, int32(wi<<6+bits.TrailingZeros64(nw)))
			}
		}
		for _, y := range extra[x] {
			if !graph.BitGet(vis, int(y)) {
				graph.BitSet(vis, int(y))
				q = append(q, y)
			}
		}
	}
	c.queue = q
	memo[start] = vis
	return vis
}

// accessLocals appends the locals the access's statement reads.
func accessLocals(a *ir.Access, out []ir.LocalID) []ir.LocalID {
	if a.Blk == nil || a.Idx >= len(a.Blk.Stmts) {
		return out
	}
	switch s := a.Blk.Stmts[a.Idx].(type) {
	case *ir.Load:
		if s.Acc.Index != nil {
			out = ir.ExprLocals(s.Acc.Index, out)
		}
	case *ir.Store:
		out = ir.ExprLocals(s.Src, out)
		if s.Acc.Index != nil {
			out = ir.ExprLocals(s.Acc.Index, out)
		}
	case *ir.SyncOp:
		if s.Acc.Index != nil {
			out = ir.ExprLocals(s.Acc.Index, out)
		}
	}
	return out
}

// mustHeldLocks runs a forward must-dataflow over lock-key bitsets: the
// returned row of an access holds the keys locked on every path reaching
// it. A block's transfer is one gen/kill pair — kill every key the block
// locks or unlocks, gen the keys its last operation on them locks — so a
// round of the round-robin iteration costs a few words per edge. Blocks not
// yet reached from the entry are TOP and skipped in the meet, which makes
// the fixpoint the greatest one; blocks the entry never reaches hold
// nothing.
func mustHeldLocks(fn *ir.Fn, keys lockKeys) keySets {
	held := newKeySets(len(fn.Accesses), len(keys.names))
	kw := held.kw
	if kw == 0 {
		return held
	}
	nb := len(fn.Blocks)
	blockRow := func(s []uint64, b int) []uint64 { return s[b*kw : (b+1)*kw] }
	gen, kill := make([]uint64, nb*kw), make([]uint64, nb*kw)
	for _, b := range fn.Blocks {
		g, k := blockRow(gen, b.ID), blockRow(kill, b.ID)
		for _, st := range b.Stmts {
			if a := ir.AccessOf(st); a != nil && keys.of[a.ID] >= 0 {
				l := int(keys.of[a.ID])
				graph.BitSet(k, l)
				if a.Kind == ir.AccLock {
					graph.BitSet(g, l)
				} else {
					graph.BitClear(g, l)
				}
			}
		}
	}

	in := make([]uint64, nb*kw) // held at block entry; the entry's stays empty
	visited := make([]bool, nb)
	visited[0] = true
	preds := fn.Preds()
	meet := make([]uint64, kw)
	for changed := true; changed; {
		changed = false
		for _, b := range fn.Blocks {
			if b.ID == 0 {
				continue
			}
			any := false
			for _, p := range preds[b.ID] {
				if !visited[p.ID] {
					continue
				}
				pin, g, k := blockRow(in, p.ID), blockRow(gen, p.ID), blockRow(kill, p.ID)
				for i := range meet {
					out := pin[i]&^k[i] | g[i]
					if any {
						out &= meet[i]
					}
					meet[i] = out
				}
				any = true
			}
			if !any {
				continue
			}
			if bin := blockRow(in, b.ID); !visited[b.ID] || !slices.Equal(bin, meet) {
				copy(bin, meet)
				visited[b.ID] = true
				changed = true
			}
		}
	}

	cur := make([]uint64, kw)
	for _, b := range fn.Blocks {
		if !visited[b.ID] {
			continue
		}
		copy(cur, blockRow(in, b.ID))
		for _, st := range b.Stmts {
			a := ir.AccessOf(st)
			if a == nil {
				continue
			}
			copy(held.row(a.ID), cur)
			if l := int(keys.of[a.ID]); l >= 0 {
				if a.Kind == ir.AccLock {
					graph.BitSet(cur, l)
				} else {
					graph.BitClear(cur, l)
				}
			}
		}
	}
	return held
}

// dominatingLock finds among locks (the lock accesses of one key) one that
// dominates a, or nil.
func dominatingLock(res *Result, a *ir.Access, locks []*ir.Access) *ir.Access {
	for _, c := range locks {
		if res.Dom.StmtDominates(c, a) {
			return c
		}
	}
	return nil
}

// dominatedUnlock finds among unlocks (the unlock accesses of one key) one
// dominated by a, or nil.
func dominatedUnlock(res *Result, a *ir.Access, unlocks []*ir.Access) *ir.Access {
	for _, c := range unlocks {
		if res.Dom.StmtDominates(a, c) {
			return c
		}
	}
	return nil
}

func accessKey(fn *ir.Fn, a *ir.Access) string {
	if a.Index == nil {
		return a.Sym.Name
	}
	return a.Sym.Name + "[" + fn.ExprString(a.Index) + "]"
}
