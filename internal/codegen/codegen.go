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
	GetsForwarded   int // gets forwarded from a preceding put
	GetsCached      int // gets satisfied by a value already fetched
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

// Sub returns the counter-by-counter difference s minus prev. Run
// snapshots Stats around a step to attribute counters to the step that
// earned them.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		GetsForwarded:   s.GetsForwarded - prev.GetsForwarded,
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
	add("gets_forwarded", s.GetsForwarded)
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

// Step is one step of code generation after lowering, and the unit the
// pass pipeline names, times and counts.
type Step struct {
	// Name is the step's pass name.
	Name string
	// on reports whether Options enable the step; nil means always.
	on func(Options) bool
	// run performs the step.
	run func(*Generator)
	// report, when set, counts what the step did beyond its change to Stats.
	report func(g *Generator, count func(name string, v int))
}

// steps is the back half of a compile in the one order its guarantee holds
// for: loop-invariant motion and the section 7 walk rewrite the lowered
// program, hoisting moves the surviving initiations up, sync motion places
// every sync, one-way conversion reads the placed positions, counter
// allocation merges accesses that sync at the same positions, and
// insertion emits what is left. Nothing else orders code generation: Generate runs this table, and
// the pass pipeline wraps each entry in a pass of the same name. The table
// is read-only, so concurrent generators share it.
var steps = [...]Step{
	{Name: "licm", on: cseOn, run: (*Generator).hoistLoopInvariantGets},
	{Name: "cse", on: cseOn, run: (*Generator).cse},
	{Name: "hoist", on: func(o Options) bool { return o.Hoist }, run: (*Generator).hoist},
	{Name: "sync-motion", run: (*Generator).placeSyncs, report: (*Generator).countSyncSites},
	{Name: "one-way", on: func(o Options) bool { return o.OneWay }, run: (*Generator).convertOneWay},
	{Name: "counter-alloc", run: (*Generator).allocateCounters, report: func(g *Generator, count func(string, int)) {
		count("counters", g.prog.Counters)
	}},
	{Name: "insert-syncs", run: (*Generator).insertSyncs, report: func(g *Generator, count func(string, int)) {
		ts := g.prog.CollectStats()
		count("syncs", ts.Syncs)
		count("stores", ts.Stores)
	}},
}

func cseOn(o Options) bool { return o.CSE }

// Steps returns the step table, in order; callers must not modify it.
func Steps() []Step { return steps[:] }

// Enabled reports whether opts run the step.
func (s Step) Enabled(opts Options) bool { return s.on == nil || s.on(opts) }

// Generate compiles fn under the delay set delays with the given options:
// New, then every step opts enable. The pass pipeline runs the same table
// one pass per step; this is the form for tests that build target code
// from an ir.Fn and a delay.Set of their own.
func Generate(fn *ir.Fn, delays *delay.Set, opts Options) *Result {
	g := New(fn, delays, opts)
	for _, s := range steps {
		if s.Enabled(opts) {
			s.run(g)
		}
	}
	return &Result{Prog: g.prog, Stats: g.stats}
}

// New returns a Generator for fn that enforces delays, holding fn lowered
// to split-phase form: every Load a get, every Store a put, each on a
// fresh counter, and no syncs yet. The steps opts enable then run on it,
// in the table's order, each through Run.
func New(fn *ir.Fn, delays *delay.Set, opts Options) *Generator {
	g := &Generator{fn: fn, delays: delays, opts: opts}
	if len(opts.Weaken) > 0 {
		g.weak = make(map[delay.Pair]bool, len(opts.Weaken))
		for _, p := range opts.Weaken {
			g.weak[p] = true
		}
	}
	g.lower()
	return g
}

// Run performs step s and hands count what it did: the change in each
// Stats counter, then the step's own figures.
func (g *Generator) Run(s Step, count func(name string, v int)) {
	before := g.stats
	s.run(g)
	for k, v := range g.stats.Sub(before).Map() {
		count(k, v)
	}
	if s.report != nil {
		s.report(g, count)
	}
}

// Prog returns the program being generated.
func (g *Generator) Prog() *target.Prog { return g.prog }

// Stats returns a snapshot of the optimizer statistics so far.
func (g *Generator) Stats() Stats { return g.stats }

// countSyncSites counts the sync placements: the placed positions (before
// counter merging collapses co-located syncs) and the sync copies that fell
// off the program end.
func (g *Generator) countSyncSites(count func(string, int)) {
	placed, dropped := 0, 0
	for _, info := range g.infos {
		if info == nil || info.removed {
			continue
		}
		placed += len(info.positions)
		dropped += info.dropped
	}
	count("sync_sites", placed)
	count("sync_copies_off_end", dropped)
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
	fn     *ir.Fn
	delays *delay.Set
	opts   Options
	prog   *target.Prog
	infos  []*accInfo // by access ID; nil once the access's initiation is gone
	weak   map[delay.Pair]bool
	stats  Stats
	work   passWork

	preds   [][]int      // by block ID, built on first use
	scanBuf availList    // the transfer function's list
	meetBuf []availEntry // the availability fixpoint's meet
	readBuf []ir.LocalID // the locals one statement reads
	// addrReads holds, by access ID, the reads of the access's address;
	// see readsAt.
	addrReads [][]int
}

// passWork counts what cse's availability fixpoint and LICM do, in units
// that repeat exactly on any host, so a test can pin them.
type passWork struct {
	ReuseScans  int // cse: transfer-function runs in the fixpoint
	ReuseSweeps int // cse: ascending passes over the queued blocks
	LICMLoops   int // LICM: natural loops with a unique preheader
	LICMVisits  int // LICM: body blocks those loops walked
}

// workHook, when a test sets it, receives the work of each cse and LICM
// pass as the pass ends.
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
			b.ForSuccs(func(s *target.Block) { g.preds[s.ID] = append(g.preds[s.ID], b.ID) })
		}
	}
	return g.preds
}

// delayOrders reports whether the delay set orders a's completion before
// b's initiation, honoring the Weaken list (a weakened pair is treated as
// absent, seeding a verifiable SC violation).
func (g *Generator) delayOrders(a, b int) bool {
	if !g.delays.Has(a, b) {
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
// inserted: with Options.Pipeline by pushing the sync forward through the
// CFG (the motion algorithm of section 6), without it right after the
// initiation.
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
			continue
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
		}
		b.ForSuccs(func(s *target.Block) {
			if !seenBlocks[s.ID] {
				seenBlocks[s.ID] = true
				work = append(work, wpos{s, 0})
			}
		})
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
