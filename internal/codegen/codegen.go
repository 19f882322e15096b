// Package codegen lowers the mid-level IR to the split-phase target form
// and applies the paper's optimizations (sections 6 and 7):
//
//   - message pipelining: every blocking shared read/write becomes a
//     split-phase get/put with a synchronizing counter, and the sync_ctr
//     is pushed as far from the initiation as the delay set and the local
//     dependences allow (the motion rules of section 6);
//   - two-way to one-way conversion: a put whose every sync_ctr lands
//     immediately before a barrier (or falls off the end of the program)
//     becomes an unacknowledged store, drained by the barrier;
//   - communication elimination: redundant gets are replaced by local
//     copies, a get of a just-written location forwards the written value,
//     and overwritten puts are deleted (Figure 11's value reuse, value
//     propagation, and write-back transformations).
//
// The generated code observes both the delay constraints and the local
// dependences: a sync_ctr never moves past a use of the fetched value, past
// an access the delay set orders after the initiation, or past a
// same-processor access that may touch the same address.
package codegen

import (
	"sort"

	"repro/internal/delay"
	"repro/internal/ir"
	"repro/internal/target"
)

// Options selects which optimizations run.
type Options struct {
	// Delays is the delay set to respect (required).
	Delays *delay.Set
	// Pipeline enables sync_ctr motion. When false every initiation is
	// followed immediately by its sync (blocking-equivalent code).
	Pipeline bool
	// OneWay converts puts to stores when all their syncs land at barriers.
	OneWay bool
	// CSE enables the communication-eliminating transformations.
	CSE bool
	// Hoist moves get/put initiations backwards within blocks.
	Hoist bool
	// Weaken lists delay pairs the generator deliberately IGNORES during
	// sync motion and hoisting, as if the analysis had never emitted them.
	// This exists solely to seed sequential-consistency violations for the
	// dynamic verifier's negative tests (internal/scverify); production
	// compilation must leave it empty.
	Weaken []delay.Pair
}

// Stats describes what the optimizer did.
type Stats struct {
	GetsEliminated  int // redundant gets replaced by local copies
	GetsForwarded   int // gets forwarded from a preceding put
	GetsDead        int // gets of never-used values removed
	GetsCached      int // gets satisfied by a value cached across blocks
	GetsHoistedLICM int // loop-invariant gets moved to preheaders
	PutsEliminated  int // overwritten puts removed (write-back)
	PutsConverted   int // puts converted to one-way stores
	SyncsPlaced     int
	SyncsAtBarriers int
	SyncsDropped    int // syncs that fell off the end of the program
	InitsHoisted    int // initiation statements moved backwards
	CountersShared  int // accesses sharing another access's counter
	CountersSaved   int // counter renames performed by allocation
}

// Sub returns the counter-by-counter difference s minus prev. The pass
// pipeline snapshots Stats around each step to attribute counters to the
// pass that earned them.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		GetsEliminated:  s.GetsEliminated - prev.GetsEliminated,
		GetsForwarded:   s.GetsForwarded - prev.GetsForwarded,
		GetsDead:        s.GetsDead - prev.GetsDead,
		GetsCached:      s.GetsCached - prev.GetsCached,
		GetsHoistedLICM: s.GetsHoistedLICM - prev.GetsHoistedLICM,
		PutsEliminated:  s.PutsEliminated - prev.PutsEliminated,
		PutsConverted:   s.PutsConverted - prev.PutsConverted,
		SyncsPlaced:     s.SyncsPlaced - prev.SyncsPlaced,
		SyncsAtBarriers: s.SyncsAtBarriers - prev.SyncsAtBarriers,
		SyncsDropped:    s.SyncsDropped - prev.SyncsDropped,
		InitsHoisted:    s.InitsHoisted - prev.InitsHoisted,
		CountersShared:  s.CountersShared - prev.CountersShared,
		CountersSaved:   s.CountersSaved - prev.CountersSaved,
	}
}

// Map returns the non-zero counters keyed by snake_case name, the form the
// pass pipeline reports in -pass-stats output.
func (s Stats) Map() map[string]int {
	m := make(map[string]int)
	add := func(k string, v int) {
		if v != 0 {
			m[k] = v
		}
	}
	add("gets_eliminated", s.GetsEliminated)
	add("gets_forwarded", s.GetsForwarded)
	add("gets_dead", s.GetsDead)
	add("gets_cached", s.GetsCached)
	add("gets_hoisted_licm", s.GetsHoistedLICM)
	add("puts_eliminated", s.PutsEliminated)
	add("puts_converted", s.PutsConverted)
	add("syncs_placed", s.SyncsPlaced)
	add("syncs_at_barriers", s.SyncsAtBarriers)
	add("syncs_dropped", s.SyncsDropped)
	add("inits_hoisted", s.InitsHoisted)
	add("counters_shared", s.CountersShared)
	add("counters_saved", s.CountersSaved)
	return m
}

// Result is the compiled program plus optimizer statistics.
type Result struct {
	Prog  *target.Prog
	Stats Stats
}

// Generate compiles fn with the given delay set and options: the canonical
// composition of the stepwise Generator API below, in one call. No compile
// outside tests goes through it — splitc runs the same steps one named pass
// at a time, in the order pass.Plan fixes — so the step order is written
// down twice, and this copy stays for the tests that cannot reach the other:
// this package's own (internal/pass imports codegen, so they cannot import
// it back) and internal/interp's unit tests, which build target code from an
// ir.Fn and a hand-picked delay.Set that no level describes. The root
// package's TestPipelineMatchesLegacy* hold the two byte-equal over the five
// kernels, thirty generated programs and every level with and without CSE.
func Generate(fn *ir.Fn, opts Options) *Result {
	g := New(fn, opts)
	g.Lower()
	if opts.CSE {
		g.EliminateDeadGets()
		g.EliminateLocal()
		g.HoistLoopInvariant()
		g.GlobalReuse()
	}
	if opts.Hoist {
		g.Hoist()
	}
	g.PlaceSyncs()
	if opts.OneWay {
		g.ConvertOneWay()
	}
	g.AllocateCounters()
	g.InsertSyncs()
	return &Result{Prog: g.prog, Stats: g.stats}
}

// New prepares a Generator. Call Lower first, then any optimization steps
// (the CSE family must precede Hoist, which must precede PlaceSyncs;
// ConvertOneWay requires PlaceSyncs; AllocateCounters and InsertSyncs come
// last, in that order — Generate shows the canonical sequence).
func New(fn *ir.Fn, opts Options) *Generator {
	g := &Generator{fn: fn, opts: opts}
	if len(opts.Weaken) > 0 {
		g.weak = make(map[delay.Pair]bool, len(opts.Weaken))
		for _, p := range opts.Weaken {
			g.weak[p] = true
		}
	}
	return g
}

// Lower mirrors the IR into split-phase target form (every Load a get,
// every Store a put, each on a fresh counter; no syncs yet).
func (g *Generator) Lower() { g.lower() }

// PlaceSyncs computes every initiation's sync positions, pushing syncs
// forward through the CFG when Options.Pipeline is set (section 6's motion
// rules) and pinning them at the initiation otherwise.
func (g *Generator) PlaceSyncs() { g.placeSyncs() }

// ConvertOneWay rewrites puts whose syncs all land at barriers (or fell off
// the program end) into unacknowledged stores. Requires PlaceSyncs.
func (g *Generator) ConvertOneWay() { g.convertOneWay() }

// InsertSyncs materializes the placed sync_ctr statements. Run last.
func (g *Generator) InsertSyncs() { g.insertSyncs() }

// Prog returns the program being generated (valid after Lower).
func (g *Generator) Prog() *target.Prog { return g.prog }

// Stats returns a snapshot of the optimizer statistics so far.
func (g *Generator) Stats() Stats { return g.stats }

// SyncSites reports the sync placements computed so far: the number of
// placed positions (before counter merging collapses co-located syncs) and
// the number of sync copies that fell off the program end.
func (g *Generator) SyncSites() (placed, dropped int) {
	for _, info := range g.infos {
		if info == nil || info.removed {
			continue
		}
		placed += len(info.positions)
		dropped += info.dropped
	}
	return placed, dropped
}

type accInfo struct {
	acc   *ir.Access
	ctr   target.Ctr
	isGet bool
	dst   ir.LocalID // gets only
	// placement results:
	positions []pos
	dropped   int // syncs that reached Ret
	removed   bool
}

type pos struct {
	blk *target.Block
	idx int // insert before Stmts[idx]; idx == len(Stmts) means at end
	why target.Cause
}

type Generator struct {
	fn    *ir.Fn
	opts  Options
	prog  *target.Prog
	infos []*accInfo // by access ID; nil once the access's initiation is gone
	weak  map[delay.Pair]bool
	stats Stats
	work  passWork

	preds   [][]int      // by block ID, built on first use
	scanBuf availList    // the transfer function's list
	meetBuf []availEntry // global reuse's meet
	readBuf []ir.LocalID // the locals one statement reads
}

// passWork counts what global reuse and LICM do, in units that repeat
// exactly on any host, so a test can pin them.
type passWork struct {
	ReuseScans  int // global reuse: transfer-function runs in the fixpoint
	ReuseSweeps int // global reuse: ascending passes over the queued blocks
	LICMLoops   int // LICM: natural loops with a unique preheader
	LICMVisits  int // LICM: body blocks those loops walked
}

// workHook, when a test sets it, receives the work of each global-reuse
// and LICM pass as the pass ends.
var workHook func(passWork)

// reportWork hands the pass's work to workHook and starts a new count.
func (g *Generator) reportWork() {
	if workHook != nil {
		workHook(g.work)
	}
	g.work = passWork{}
}

// predecessors returns each block's predecessor IDs in ascending order,
// built on first use: the passes move statements between blocks but never
// change an edge.
func (g *Generator) predecessors() [][]int {
	if g.preds == nil {
		g.preds = make([][]int, len(g.prog.Blocks))
		for _, b := range g.prog.Blocks {
			forSuccs(b, func(s int) { g.preds[s] = append(g.preds[s], b.ID) })
		}
	}
	return g.preds
}

// forSuccs calls f with the ID of each of b's successors, in Succs order,
// without building Succs' slice.
func forSuccs(b *target.Block, f func(int)) {
	switch t := b.Term.(type) {
	case *target.Jump:
		f(t.To.ID)
	case *target.Branch:
		f(t.Then.ID)
		if t.Else != t.Then {
			f(t.Else.ID)
		}
	}
}

// delayOrders reports whether the delay set orders a's completion before
// b's initiation, honoring the Weaken list (a weakened pair is treated as
// absent, seeding a verifiable SC violation).
func (g *Generator) delayOrders(a, b int) bool {
	if !g.opts.Delays.Has(a, b) {
		return false
	}
	return !g.weak[delay.Pair{A: a, B: b}]
}

// lower mirrors the IR CFG into target form, turning Loads into Gets and
// Stores into Puts, each with a fresh counter. No syncs are inserted yet.
func (g *Generator) lower() {
	fn := g.fn
	g.prog = &target.Prog{Fn: fn}
	g.infos = make([]*accInfo, len(fn.Accesses))
	blocks := make([]*target.Block, len(fn.Blocks))
	for i := range fn.Blocks {
		blocks[i] = g.prog.NewBlock(i)
	}
	ctr := 0
	for i, b := range fn.Blocks {
		tb := blocks[i]
		tb.Stmts = make([]target.Stmt, 0, len(b.Stmts))
		for _, s := range b.Stmts {
			switch s := s.(type) {
			case *ir.Load:
				info := &accInfo{acc: s.Acc, ctr: target.Ctr(ctr), isGet: true, dst: s.Dst}
				ctr++
				g.infos[s.Acc.ID] = info
				tb.Stmts = append(tb.Stmts, &target.Get{Dst: s.Dst, Acc: s.Acc, Ctr: info.ctr})
			case *ir.Store:
				info := &accInfo{acc: s.Acc, ctr: target.Ctr(ctr)}
				ctr++
				g.infos[s.Acc.ID] = info
				tb.Stmts = append(tb.Stmts, &target.Put{Acc: s.Acc, Src: s.Src, Ctr: info.ctr})
			default:
				tb.Stmts = append(tb.Stmts, &target.Wrap{S: s})
			}
		}
		switch t := b.Term.(type) {
		case *ir.Jump:
			tb.Term = &target.Jump{To: blocks[t.To.ID]}
		case *ir.Branch:
			tb.Term = &target.Branch{Cond: t.Cond, Then: blocks[t.Then.ID], Else: blocks[t.Else.ID]}
		case *ir.Ret:
			tb.Term = &target.Ret{}
		}
	}
	g.prog.Counters = ctr
}

// blocksMotion reports whether the sync for access a (a get into dst when
// isGet) must execute before statement s, and if so which constraint
// stopped it (recorded as the sync's provenance).
func (g *Generator) blocksMotion(a *accInfo, s target.Stmt) (target.Cause, bool) {
	e := effectOf(s)
	// Local def-use: the fetched value must be valid before any use, and
	// the in-flight reply must land before any redefinition of the
	// destination (the arrival would clobber the newer value).
	if a.isGet && (e.def == a.dst || g.reads(s, a.dst)) {
		return target.Cause{Acc: a.acc.ID, Blocker: -1, Kind: target.CauseLocal}, true
	}
	b := e.acc
	if b == nil {
		return target.Cause{}, false
	}
	// Delay constraints: a must complete before b initiates.
	if g.delayOrders(a.acc.ID, b.ID) {
		return target.Cause{Acc: a.acc.ID, Blocker: b.ID, Kind: target.CauseDelay}, true
	}
	// Same-processor memory dependence: outstanding operations to a
	// possibly-identical address must stay ordered with later accesses to
	// it, except for read-after-read.
	if g.sameProcOrdered(a.acc, b) {
		return target.Cause{Acc: a.acc.ID, Blocker: b.ID, Kind: target.CauseAlias}, true
	}
	return target.Cause{}, false
}

// placeSyncs computes, for every initiation, where its sync_ctr must be
// inserted, by pushing the sync forward through the CFG (the motion
// algorithm of section 6).
func (g *Generator) placeSyncs() {
	for _, blk := range g.prog.Blocks {
		for idx, s := range blk.Stmts {
			var info *accInfo
			switch s := s.(type) {
			case *target.Get:
				info = g.infos[s.Acc.ID]
			case *target.Put:
				info = g.infos[s.Acc.ID]
			default:
				continue
			}
			if info == nil {
				continue
			}
			if g.opts.Pipeline {
				g.push(info, blk, idx+1)
			} else {
				why := target.Cause{Acc: info.acc.ID, Blocker: -1, Kind: target.CauseLocal}
				info.positions = append(info.positions, pos{blk: blk, idx: idx + 1, why: why})
			}
		}
	}
}

// push advances a sync from (blk, idx) forward until blocked, propagating
// copies into successors at block ends (rule 1), merging duplicate copies
// (rule 2b), and dropping copies that reach the end of the program.
func (g *Generator) push(info *accInfo, blk *target.Block, idx int) {
	type wpos struct {
		blk *target.Block
		idx int
	}
	seenBlocks := map[int]bool{}
	placed := map[wpos]bool{}
	var work []wpos
	work = append(work, wpos{blk, idx})
	for len(work) > 0 {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		b, i := p.blk, p.idx
		stopped := false
		var why target.Cause
		for ; i < len(b.Stmts); i++ {
			if c, blocked := g.blocksMotion(info, b.Stmts[i]); blocked {
				why, stopped = c, true
				break
			}
		}
		if stopped {
			w := wpos{b, i}
			if !placed[w] {
				placed[w] = true
				info.positions = append(info.positions, pos{blk: b, idx: i, why: why})
			}
			continue
		}
		// Reached the block end.
		switch t := b.Term.(type) {
		case *target.Ret:
			info.dropped++
		case *target.Branch:
			// A branch condition that uses the fetched value pins the
			// sync at the end of this block.
			if info.isGet && ir.ExprUsesLocal(t.Cond, info.dst) {
				w := wpos{b, len(b.Stmts)}
				if !placed[w] {
					placed[w] = true
					why := target.Cause{Acc: info.acc.ID, Blocker: -1, Kind: target.CauseBranch}
					info.positions = append(info.positions, pos{blk: b, idx: len(b.Stmts), why: why})
				}
				continue
			}
			for _, s := range b.Succs() {
				if !seenBlocks[s.ID] {
					seenBlocks[s.ID] = true
					work = append(work, wpos{s, 0})
				}
			}
		case *target.Jump:
			if !seenBlocks[t.To.ID] {
				seenBlocks[t.To.ID] = true
				work = append(work, wpos{t.To, 0})
			}
		}
	}
}

// convertOneWay rewrites puts whose syncs all land immediately before a
// barrier (or fell off the program end) into one-way stores, deleting the
// syncs: the barrier's implicit all-store-sync provides the completion.
func (g *Generator) convertOneWay() {
	for _, blk := range g.prog.Blocks {
		for idx, s := range blk.Stmts {
			put, ok := s.(*target.Put)
			if !ok {
				continue
			}
			info := g.infos[put.Acc.ID]
			allAtBarriers := true
			for _, p := range info.positions {
				if !g.posAtBarrier(p) {
					allAtBarriers = false
					break
				}
			}
			if !allAtBarriers {
				continue
			}
			blk.Stmts[idx] = &target.Store{Acc: put.Acc, Src: put.Src}
			info.positions = nil
			info.removed = true
			g.stats.PutsConverted++
		}
	}
}

// posAtBarrier reports whether the position is immediately before a
// barrier statement (skipping other pending syncs is unnecessary: syncs
// are not yet materialized).
func (g *Generator) posAtBarrier(p pos) bool {
	if p.idx >= len(p.blk.Stmts) {
		return false
	}
	b := effectOf(p.blk.Stmts[p.idx]).acc
	return b != nil && b.Kind == ir.AccBarrier
}

// insertSyncs materializes the computed sync positions. Shared counters
// collapse to one sync_ctr per (position, counter); the collapsed sync's
// Why accumulates the provenance of every access syncing there, in access
// ID order.
func (g *Generator) insertSyncs() {
	type ins struct {
		idx int
		ctr target.Ctr
		why target.Cause
	}
	byBlock := make([][]ins, len(g.prog.Blocks))
	for _, info := range g.infos {
		if info == nil || info.removed {
			continue
		}
		g.stats.SyncsDropped += info.dropped
		for _, p := range info.positions {
			byBlock[p.blk.ID] = append(byBlock[p.blk.ID], ins{idx: p.idx, ctr: info.ctr, why: p.why})
			g.stats.SyncsPlaced++
			if g.posAtBarrier(p) {
				g.stats.SyncsAtBarriers++
			}
		}
	}
	var at []*target.SyncCtr // the syncs before one statement
	for _, blk := range g.prog.Blocks {
		list := byBlock[blk.ID]
		if len(list) == 0 {
			continue
		}
		// Stable rebuild: the syncs before each index in the order their
		// (index, counter) first occurs.
		sort.SliceStable(list, func(i, j int) bool { return list[i].idx < list[j].idx })
		out := make([]target.Stmt, 0, len(blk.Stmts)+len(list))
		k := 0
		for i := 0; i <= len(blk.Stmts); i++ {
			at = at[:0]
		next:
			for ; k < len(list) && list[k].idx == i; k++ {
				in := list[k]
				for _, sc := range at {
					if sc.Ctr == in.ctr {
						sc.Why = append(sc.Why, in.why)
						continue next
					}
				}
				at = append(at, &target.SyncCtr{Ctr: in.ctr, Why: []target.Cause{in.why}})
			}
			for _, sc := range at {
				out = append(out, sc)
			}
			if i < len(blk.Stmts) {
				out = append(out, blk.Stmts[i])
			}
		}
		blk.Stmts = out
	}
}
