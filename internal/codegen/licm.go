package codegen

import (
	"slices"
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
//   - the get dominates every read of its destination inside the loop: a
//     read that can run ahead of it on an iteration sees, on the first,
//     the value the destination held before the loop, which the hoisted
//     get would overwrite;
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
		body  []int // block IDs, ascending, including head and latch
	}
	var loops []loop
	in := newStampSet(len(blocks))
	for _, b := range blocks {
		b.ForSuccs(func(h *target.Block) {
			if dom.Dominates(h.ID, b.ID) {
				loops = append(loops, loop{head: h.ID, latch: b.ID, body: naturalLoop(sites.preds, h.ID, b.ID, in)})
			}
		})
	}
	// Inner loops first (smaller bodies), so a get can bubble outward
	// through nested loops across repeated passes.
	sort.Slice(loops, func(i, j int) bool { return len(loops[i].body) < len(loops[j].body) })

	written := newStampSet(len(g.fn.Locals))
	for _, lp := range loops {
		in.reset()
		for _, id := range lp.body {
			in.add(id)
		}
		// The preheader: the unique predecessor of the head outside the
		// loop. The IR builder always produces one.
		var pre *target.Block
		count := 0
		for _, p := range sites.preds[lp.head] {
			if !in.has(p) {
				pre = blocks[p]
				count++
			}
		}
		if count != 1 {
			continue
		}
		g.hoistFromLoop(lp.body, in, written, lp.latch, pre, dom, sites)
	}
	g.reportWork()
}

// stampSet is a set of small integers cleared in O(1): a member carries
// the current stamp.
type stampSet struct {
	stamp []int32
	cur   int32
}

func newStampSet(n int) *stampSet { return &stampSet{stamp: make([]int32, n), cur: 1} }

func (s *stampSet) reset()         { s.cur++ }
func (s *stampSet) add(i int)      { s.stamp[i] = s.cur }
func (s *stampSet) has(i int) bool { return s.stamp[i] == s.cur }

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
	x := &localSites{preds: g.predecessors(), defs: make([][]defSite, nl), uses: make([][]int, nl)}
	buf := g.readBuf
	for _, b := range blocks {
		for _, s := range b.Stmts {
			if def := effectOf(s).def; def != noLocal {
				x.defs[def] = append(x.defs[def], defSite{b.ID, s})
			}
			buf = appendReads(s, buf[:0])
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
	g.readBuf = buf
	return x
}

// moveGet re-homes a hoisted get's definition and its reads, the locals
// of its address.
func (x *localSites) moveGet(get *target.Get, reads []ir.LocalID, from, to int) {
	for i := range x.defs[get.Dst] {
		if x.defs[get.Dst][i].s == target.Stmt(get) {
			x.defs[get.Dst][i].blk = to
		}
	}
	for _, l := range reads {
		for i, b := range x.uses[l] {
			if b == from {
				x.uses[l][i] = to
				break
			}
		}
	}
}

// naturalLoop lists, in ascending order, the blocks of the natural loop
// of back edge latch -> head: head plus all blocks that reach latch
// without passing through head. It uses in as its visited set.
func naturalLoop(preds [][]int, head, latch int, in *stampSet) []int {
	in.reset()
	in.add(head)
	body := []int{head}
	if latch != head {
		in.add(latch)
		body = append(body, latch)
	}
	stack := []int{latch}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range preds[n] {
			if !in.has(p) {
				in.add(p)
				body = append(body, p)
				stack = append(stack, p)
			}
		}
	}
	slices.Sort(body)
	return body
}

// hoistFromLoop moves eligible gets from the loop body to the preheader.
// in holds the body's blocks; written is scratch for the locals the loop
// writes.
func (g *Generator) hoistFromLoop(body []int, in, written *stampSet, latch int, pre *target.Block, dom *ir.DomTree, sites *localSites) {
	g.work.LICMLoops++
	g.work.LICMVisits += len(body)
	// Collect the loop's kill facts in one pass.
	written.reset()
	var writes []*ir.Access
	var accs []int // every access in the loop, for the delay check
	type getSite struct {
		blk *target.Block
		st  *target.Get
	}
	var gets []getSite
	for _, id := range body {
		b := g.prog.Blocks[id]
		for _, s := range b.Stmts {
			e := effectOf(s)
			if e.acquires() {
				return
			}
			if e.acc != nil {
				accs = append(accs, e.acc.ID)
			}
			if e.def != noLocal {
				written.add(int(e.def)) // a get's own destination too
			}
			if e.writes() {
				writes = append(writes, e.acc)
			}
			if get, ok := s.(*target.Get); ok {
				gets = append(gets, getSite{b, get})
			}
		}
	}
	for _, site := range gets {
		get := site.st
		// Runs every iteration?
		if !dom.Dominates(site.blk.ID, latch) {
			continue
		}
		// Every read of the destination in the loop follows the get on
		// its iteration?
		if g.dstReadAhead(in, site.blk, get, dom, sites) {
			continue
		}
		// Address invariant? No loop-written local in the index.
		g.readBuf = appendReads(get, g.readBuf[:0])
		if slices.ContainsFunc(g.readBuf, func(l ir.LocalID) bool { return written.has(int(l)) }) {
			continue
		}
		// Destination written only by this get inside the loop, and not
		// used outside the loop (zero-trip safety).
		if sites.dstWrittenElsewhere(in, get) || sites.localUsedOutside(in, get.Dst) {
			continue
		}
		// No may-aliasing write in the loop.
		if slices.ContainsFunc(writes, func(w *ir.Access) bool { return g.mayAlias(get.Acc, w) }) {
			continue
		}
		// No delay edge orders a loop access before this get: hoisting
		// must not initiate the get ahead of a completion it waits on.
		if slices.ContainsFunc(accs, func(x int) bool { return g.delayOrders(x, get.Acc.ID) }) {
			continue
		}
		// Hoist: remove from the body block, append to the preheader. The
		// get's access leaves the loop with it.
		site.blk.Stmts = removeStmt(site.blk.Stmts, get)
		pre.Stmts = append(pre.Stmts, get)
		sites.moveGet(get, g.readBuf, site.blk.ID, pre.ID)
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
func (x *localSites) dstWrittenElsewhere(body *stampSet, get *target.Get) bool {
	for _, d := range x.defs[get.Dst] {
		if body.has(d.blk) && d.s != target.Stmt(get) {
			return true
		}
	}
	return false
}

// dstReadAhead reports whether a statement or terminator inside the loop
// can read the get's destination before the get on the same iteration: it
// sits in a block the get's block blk does not dominate, or ahead of the
// get in blk. Any other read is reached only through the get, so on every
// iteration it sees the get's value.
func (g *Generator) dstReadAhead(body *stampSet, blk *target.Block, get *target.Get, dom *ir.DomTree, sites *localSites) bool {
	scanned := false
	for _, b := range sites.uses[get.Dst] {
		if !body.has(b) {
			continue
		}
		if b != blk.ID {
			if !dom.Dominates(blk.ID, b) {
				return true
			}
			continue
		}
		if scanned {
			continue
		}
		scanned = true
		for _, s := range blk.Stmts {
			if s == target.Stmt(get) {
				break
			}
			g.readBuf = appendReads(s, g.readBuf[:0])
			if slices.Contains(g.readBuf, get.Dst) {
				return true
			}
		}
	}
	return false
}

// localUsedOutside reports whether the local is read by any statement or
// terminator outside the loop.
func (x *localSites) localUsedOutside(body *stampSet, id ir.LocalID) bool {
	for _, b := range x.uses[id] {
		if !body.has(b) {
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
