package syncanal

import (
	"math/bits"

	"repro/internal/graph"
	"repro/internal/ir"
)

// Section 5.3: lock guards. For a pair of accesses guarded by the same
// lock, other accesses guarded by that lock cannot appear in the violation
// sequence; orient.go turns the guard sets computed here into the
// shared-lock arm of the removal predicate.

// computeGuards implements the guarded-access definition of section 5.3.
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
func computeGuards(res *Result) map[int]map[string]bool {
	fn := res.Fn
	guards := make(map[int]map[string]bool)
	held := mustHeldLocks(fn)
	locked := false
	for _, ls := range held {
		if len(ls) > 0 {
			locked = true
			break
		}
	}
	if !locked {
		// Lock-free program: nothing is guarded, so the confinement graph
		// never needs to be built.
		return guards
	}
	locks := make(map[string][]*ir.Access)
	unlocks := make(map[string][]*ir.Access)
	for _, c := range fn.Accesses {
		switch c.Kind {
		case ir.AccLock:
			k := accessKey(fn, c)
			locks[k] = append(locks[k], c)
		case ir.AccUnlock:
			k := accessKey(fn, c)
			unlocks[k] = append(unlocks[k], c)
		}
	}
	confined := newConfinement(res)
	for _, a := range fn.Accesses {
		for l := range held[a.ID] {
			b1 := dominatingLock(res, a, locks[l])
			if b1 == nil || !confined.follows(b1.ID, a.ID) {
				continue
			}
			b2 := dominatedUnlock(res, a, unlocks[l])
			if b2 == nil || !confined.precedes(a.ID, b2.ID) {
				continue
			}
			if guards[a.ID] == nil {
				guards[a.ID] = make(map[string]bool)
			}
			guards[a.ID][l] = true
		}
	}
	return guards
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

func newConfinement(res *Result) *confinement {
	fn := res.Fn
	n := len(fn.Accesses)
	c := &confinement{
		use: make([][]int32, n), def: make([][]int32, n),
		from: make(map[int][]uint64), into: make(map[int][]uint64),
	}
	c.succ, c.pred = res.D1.SourceMatrix().Row, res.D1.TargetRow
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

// mustHeldLocks runs a forward must-dataflow: held[acc] = set of lock keys
// held on every path reaching the access.
func mustHeldLocks(fn *ir.Fn) map[int]map[string]bool {
	nb := len(fn.Blocks)
	// in[b] = set held at block entry. Universal set approximated by nil
	// with a visited flag.
	in := make([]map[string]bool, nb)
	visited := make([]bool, nb)
	preds := fn.Preds()

	clone := func(m map[string]bool) map[string]bool {
		out := make(map[string]bool, len(m))
		for k, v := range m {
			if v {
				out[k] = true
			}
		}
		return out
	}
	transfer := func(b *ir.Block, s map[string]bool) map[string]bool {
		out := clone(s)
		for _, st := range b.Stmts {
			a := ir.AccessOf(st)
			if a == nil {
				continue
			}
			switch a.Kind {
			case ir.AccLock:
				out[accessKey(fn, a)] = true
			case ir.AccUnlock:
				delete(out, accessKey(fn, a))
			}
		}
		return out
	}
	intersect := func(a, b map[string]bool) map[string]bool {
		out := make(map[string]bool)
		for k := range a {
			if b[k] {
				out[k] = true
			}
		}
		return out
	}

	in[0] = map[string]bool{}
	visited[0] = true
	for changed := true; changed; {
		changed = false
		for _, b := range fn.Blocks {
			if b.ID != 0 {
				var meet map[string]bool
				any := false
				for _, p := range preds[b.ID] {
					if !visited[p.ID] {
						continue
					}
					out := transfer(p, in[p.ID])
					if !any {
						meet = out
						any = true
					} else {
						meet = intersect(meet, out)
					}
				}
				if !any {
					continue
				}
				if !visited[b.ID] || !sameSet(in[b.ID], meet) {
					in[b.ID] = meet
					visited[b.ID] = true
					changed = true
				}
			}
		}
	}

	held := make(map[int]map[string]bool)
	for _, b := range fn.Blocks {
		if !visited[b.ID] {
			continue
		}
		cur := clone(in[b.ID])
		for _, st := range b.Stmts {
			a := ir.AccessOf(st)
			if a == nil {
				continue
			}
			held[a.ID] = clone(cur)
			switch a.Kind {
			case ir.AccLock:
				cur[accessKey(fn, a)] = true
			case ir.AccUnlock:
				delete(cur, accessKey(fn, a))
			}
		}
	}
	return held
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
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
