package codegen

import (
	"sort"

	"repro/internal/ir"
	"repro/internal/target"
)

// hoistLoopInvariantGets implements loop-invariant communication motion:
// a get whose address cannot change across iterations, in a loop that
// neither writes the location nor crosses an acquire, fetches the same
// value every trip — the Figure 9 situation ("a barrier marks the
// transition to X being read-only"), where all but the first fetch are
// redundant. The get moves to the loop preheader.
//
// Conditions:
//   - the get's block dominates the loop latch (it runs every iteration);
//   - nothing in the loop kills availability: no may-aliasing write to
//     the symbol, no wait/lock/barrier, no redefinition of the address's
//     locals or of the destination (other than the get itself);
//   - remote reads have no observable side effects, so executing the
//     fetch once in the preheader — even if the loop body would have
//     executed zero times — is only a question of the destination local:
//     the destination must not be used outside the loop (a zero-trip
//     execution would otherwise observe the hoisted clobber).
//
// Delay correctness: hoisting is initiation back-motion across the loop
// head; it must not cross an access the delay set orders before the get.
// The no-kill conditions are stronger than that for data accesses, and
// crossing the loop-head branch is a pure control transfer; delay edges
// from accesses in the preheader still take effect because the sync
// placement runs afterwards on the rewritten program.
func (g *Generator) hoistLoopInvariantGets() {
	dom := ir.BuildDom(g.fn) // target blocks mirror IR block IDs
	blocks := g.prog.Blocks
	sites := g.indexLocalSites()

	// Find natural loops: back edge P -> H with H dominating P.
	type loop struct {
		head  int
		latch int
		body  map[int]bool // block IDs, including head and latch
	}
	var loops []loop
	for _, b := range blocks {
		for _, s := range b.Succs() {
			h := s.ID
			if dom.Dominates(h, b.ID) {
				loops = append(loops, loop{head: h, latch: b.ID, body: naturalLoop(sites.preds, h, b.ID)})
			}
		}
	}
	// Inner loops first (smaller bodies), so a get can bubble outward
	// through nested loops across repeated passes.
	sort.Slice(loops, func(i, j int) bool { return len(loops[i].body) < len(loops[j].body) })

	for _, lp := range loops {
		// The preheader: the unique predecessor of the head outside the
		// loop. The IR builder always produces one.
		var pre *target.Block
		count := 0
		for _, p := range sites.preds[lp.head] {
			if !lp.body[p] {
				pre = blocks[p]
				count++
			}
		}
		if count != 1 {
			continue
		}
		g.hoistFromLoop(lp.body, lp.latch, pre, dom, sites)
	}
}

// localSites is what one LICM pass needs to know about the program outside
// the loop at hand, collected once: block predecessors and, per local, the
// statements that write it and the blocks that read it. Hoisting a get
// moves its entries with it (moveGet).
type localSites struct {
	preds [][]int
	defs  [][]defSite // by local: the statements writing it
	uses  [][]int     // by local: one block ID per reading statement or terminator
}

type defSite struct {
	blk int
	s   target.Stmt
}

func (g *Generator) indexLocalSites() *localSites {
	blocks := g.prog.Blocks
	nl := len(g.fn.Locals)
	x := &localSites{preds: make([][]int, len(blocks)), defs: make([][]defSite, nl), uses: make([][]int, nl)}
	var buf []ir.LocalID
	for _, b := range blocks {
		for _, s := range b.Succs() {
			x.preds[s.ID] = append(x.preds[s.ID], b.ID)
		}
		for _, s := range b.Stmts {
			if l, ok := stmtDst(s); ok {
				x.defs[l] = append(x.defs[l], defSite{b.ID, s})
			}
			buf = stmtLocals(s, buf[:0])
			for _, l := range buf {
				x.uses[l] = append(x.uses[l], b.ID)
			}
		}
		if br, ok := b.Term.(*target.Branch); ok {
			buf = ir.ExprLocals(br.Cond, buf[:0])
			for _, l := range buf {
				x.uses[l] = append(x.uses[l], b.ID)
			}
		}
	}
	return x
}

// moveGet re-homes a hoisted get's definition and address reads.
func (x *localSites) moveGet(get *target.Get, from, to int) {
	for i := range x.defs[get.Dst] {
		if x.defs[get.Dst][i].s == target.Stmt(get) {
			x.defs[get.Dst][i].blk = to
		}
	}
	for _, l := range stmtLocals(get, nil) {
		for i, b := range x.uses[l] {
			if b == from {
				x.uses[l][i] = to
				break
			}
		}
	}
}

// stmtLocals appends the locals a target statement reads, once per
// occurrence: the enumerating form of stmtUsesLocal.
func stmtLocals(s target.Stmt, out []ir.LocalID) []ir.LocalID {
	if acc := accessOfTarget(s); acc != nil && acc.Index != nil {
		out = ir.ExprLocals(acc.Index, out)
	}
	switch s := s.(type) {
	case *target.Put:
		out = ir.ExprLocals(s.Src, out)
	case *target.Store:
		out = ir.ExprLocals(s.Src, out)
	case *target.Wrap:
		switch w := s.S.(type) {
		case *ir.Assign:
			out = ir.ExprLocals(w.Src, out)
		case *ir.SetElem:
			out = append(out, w.Arr)
			out = ir.ExprLocals(w.Index, out)
			out = ir.ExprLocals(w.Src, out)
		case *ir.Print:
			for _, a := range w.Args {
				if !a.IsStr {
					out = ir.ExprLocals(a.E, out)
				}
			}
		}
	}
	return out
}

// naturalLoop collects the blocks of the natural loop of back edge
// latch -> head: head plus all blocks that reach latch without passing
// through head.
func naturalLoop(preds [][]int, head, latch int) map[int]bool {
	body := map[int]bool{head: true, latch: true}
	stack := []int{latch}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range preds[n] {
			if !body[p] {
				body[p] = true
				stack = append(stack, p)
			}
		}
	}
	return body
}

// hoistFromLoop moves eligible gets from the loop body to the preheader.
func (g *Generator) hoistFromLoop(body map[int]bool, latch int, pre *target.Block, dom *ir.DomTree, sites *localSites) {
	fn := g.fn
	// Collect the loop's kill facts in one pass.
	localsWritten := map[ir.LocalID]bool{}
	var writes []*ir.Access
	var accs []int // every access in the loop, for the delay check
	hasAcquire := false
	type getSite struct {
		blk *target.Block
		st  *target.Get
	}
	var gets []getSite
	for _, b := range g.prog.Blocks {
		if !body[b.ID] {
			continue
		}
		for _, s := range b.Stmts {
			if x := accessOfTarget(s); x != nil {
				accs = append(accs, x.ID)
			}
			switch s := s.(type) {
			case *target.Get:
				localsWritten[s.Dst] = true // provisional; refined below
				gets = append(gets, getSite{b, s})
			case *target.Put:
				writes = append(writes, s.Acc)
			case *target.Store:
				writes = append(writes, s.Acc)
			case *target.Wrap:
				switch w := s.S.(type) {
				case *ir.Assign:
					localsWritten[w.Dst] = true
				case *ir.SetElem:
					localsWritten[w.Arr] = true
				case *ir.SyncOp:
					switch w.Acc.Kind {
					case ir.AccWait, ir.AccLock, ir.AccBarrier:
						hasAcquire = true
					}
				}
			}
		}
	}
	if hasAcquire {
		return
	}
	for _, site := range gets {
		get := site.st
		// Runs every iteration?
		if !dom.Dominates(site.blk.ID, latch) {
			continue
		}
		// Address invariant? No loop-written local in the index.
		invariant := true
		if get.Acc.Index != nil {
			for _, l := range ir.ExprLocals(get.Acc.Index, nil) {
				if localsWritten[l] {
					invariant = false
					break
				}
			}
		}
		if !invariant {
			continue
		}
		// Destination written only by this get inside the loop, and not
		// used outside the loop (zero-trip safety).
		if sites.dstWrittenElsewhere(body, get) || sites.localUsedOutside(body, get.Dst) {
			continue
		}
		// No may-aliasing write in the loop.
		aliased := false
		for _, w := range writes {
			if w.Sym == get.Acc.Sym && ir.MayAliasSameProc(fn, w.Index, get.Acc.Index, false) {
				aliased = true
				break
			}
		}
		if aliased {
			continue
		}
		// No delay edge orders a loop access before this get: hoisting
		// must not initiate the get ahead of a completion it waits on.
		delayed := false
		for _, x := range accs {
			if g.opts.Delays.Has(x, get.Acc.ID) {
				delayed = true
				break
			}
		}
		if delayed {
			continue
		}
		// Hoist: remove from the body block, append to the preheader. The
		// get's access leaves the loop with it.
		site.blk.Stmts = removeStmt(site.blk.Stmts, get)
		pre.Stmts = append(pre.Stmts, get)
		sites.moveGet(get, site.blk.ID, pre.ID)
		for i, x := range accs {
			if x == get.Acc.ID {
				accs = append(accs[:i], accs[i+1:]...)
				break
			}
		}
		g.stats.GetsHoistedLICM++
	}
}

// dstWrittenElsewhere reports whether the get's destination is defined by
// any other statement inside the loop.
func (x *localSites) dstWrittenElsewhere(body map[int]bool, get *target.Get) bool {
	for _, d := range x.defs[get.Dst] {
		if body[d.blk] && d.s != target.Stmt(get) {
			return true
		}
	}
	return false
}

// localUsedOutside reports whether the local is read by any statement or
// terminator outside the loop.
func (x *localSites) localUsedOutside(body map[int]bool, id ir.LocalID) bool {
	for _, b := range x.uses[id] {
		if !body[b] {
			return true
		}
	}
	return false
}

func removeStmt(list []target.Stmt, s target.Stmt) []target.Stmt {
	out := list[:0]
	for _, x := range list {
		if x != s {
			out = append(out, x)
		}
	}
	return out
}

// HoistLoopInvariant moves loop-invariant gets into loop preheaders.
func (g *Generator) HoistLoopInvariant() { g.hoistLoopInvariantGets() }
