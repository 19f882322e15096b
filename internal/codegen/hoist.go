package codegen

import "repro/internal/target"

// hoist moves get/put initiations backwards within their basic blocks
// (section 6: "puts and gets are moved backwards in the program execution
// and syncs are moved forward"). Issuing a remote operation earlier widens
// the window in which its latency can hide behind other work — in
// particular, consecutive read-modify-write pairs like
//
//	get t1 = A[i]; buf[i] = t1; get t2 = A[i+1]; buf[i+1] = t2
//
// become
//
//	get t1 = A[i]; get t2 = A[i+1]; buf[i] = t1; buf[i+1] = t2
//
// so the two remote reads are outstanding together.
//
// An initiation may move above a preceding statement unless:
//   - the statement carries an access B whose completion the delay set
//     orders before this initiation (D.Has(B, this));
//   - the statement is a synchronization operation ordered before this
//     initiation by the delay set (same rule — sync ops are accesses);
//   - the statement defines a local this initiation reads (index or put
//     source), or either uses or defines a get's destination;
//   - the statement may touch the same shared address on this processor
//     (write-read / read-write / write-write ordering), except that two
//     reads commute.
func (g *Generator) hoist() {
	for _, blk := range g.prog.Blocks {
		g.hoistInBlock(blk)
	}
}

func (g *Generator) hoistInBlock(blk *target.Block) {
	// Bubble initiations upward to a fixpoint. Blocks are short; the
	// quadratic sweep is fine.
	changed := true
	for changed {
		changed = false
		for i := 1; i < len(blk.Stmts); i++ {
			cur := blk.Stmts[i]
			if !isInitiation(cur) {
				continue
			}
			if g.canSwap(blk.Stmts[i-1], cur) {
				blk.Stmts[i-1], blk.Stmts[i] = cur, blk.Stmts[i-1]
				g.stats.InitsHoisted++
				changed = true
			}
		}
	}
}

func isInitiation(s target.Stmt) bool {
	switch s.(type) {
	case *target.Get, *target.Put, *target.Store:
		return true
	}
	return false
}

// canSwap reports whether initiation cur may move above prev.
func (g *Generator) canSwap(prev, cur target.Stmt) bool {
	p, c := effectOf(prev), effectOf(cur)
	if c.acc == nil {
		return false
	}
	get, curIsGet := cur.(*target.Get)
	// Among initiations, only "get above put/store" is worth doing (the
	// get has a consumer waiting downstream; the put does not block).
	// Restricting to that one direction also guarantees termination:
	// every useful swap strictly decreases the number of puts preceding
	// gets, and no allowed swap increases it.
	if isInitiation(prev) && (!curIsGet || !p.writes()) {
		return false
	}
	if p.acc != nil {
		// Delay constraints: prev's access must not be ordered before cur.
		if g.delayOrders(p.acc.ID, c.acc.ID) {
			return false
		}
		// Same-processor memory ordering for shared accesses.
		if g.sameProcOrdered(p.acc, c.acc) {
			return false
		}
		// Without a delay edge, the analysis says the orders are
		// indistinguishable; synchronization operations may be crossed.
	}
	// A sync_ctr must not move relative to initiations on its counter;
	// hoisting runs before sync placement, but be robust.
	if _, isSync := prev.(*target.SyncCtr); isSync {
		return false
	}
	// Local data dependences: prev must not define a local cur reads, nor
	// define or read a get's destination (it would observe the hoisted
	// get's in-flight clobber).
	if p.def != noLocal && g.reads(cur, p.def) {
		return false
	}
	return !curIsGet || p.def != get.Dst && !g.reads(prev, get.Dst)
}
