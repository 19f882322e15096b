package interp

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/conflict"
	"repro/internal/ir"
	"repro/internal/source"
)

// This file is the package's one sequentially consistent transition
// system (mcState.step) and the explicit-state model checker over it. The
// same steps serve three drivers: EnumerateSCStats explores them under
// partial-order reduction, RunSC (sc.go) walks one seeded schedule, and
// the package's tests explore them unreduced with an exact visited set
// (EnumerateSCReferenceStats, export_test.go), the reduction's
// differential reference.
// The reduced enumerator is built to scale:
//
//   - Partial-order reduction. Processor-local steps (assignments, local
//     array writes, prints, control flow) and shared accesses that cannot
//     conflict with anything another live processor may still execute are
//     run deterministically, without branching. The independence oracle is
//     exactly the paper's conflict relation C (package conflict): two
//     dynamic steps by different processors commute whenever their static
//     accesses are not C-related, so promoting such a step to "runs now"
//     preserves the set of reachable final states (see DESIGN.md §11 for
//     the soundness argument). Branching happens only at accesses that may
//     genuinely race: conflicting data accesses and synchronization
//     operations.
//
//   - Undo-log DFS. Transitions mutate one shared state in place and
//     record compensating deltas on a trail; backtracking reverts the
//     trail instead of deep-copying memories, environments, and sync
//     objects for every explored edge.
//
//   - Fingerprinted visited set. States are encoded into a flat binary
//     buffer (symbol and local order interned once per run, no sorting or
//     fmt in the hot path) and deduplicated by a 128-bit multiply-xor
//     fingerprint, so the visited set costs 16 bytes per state instead of
//     the encoding itself.
//
// The reference keeps the encoding itself and runs no reduction, so the
// differential suite (enum_diff_test.go) checks exactly those two: the
// ample sets and the fingerprints. scverify and the fuzz harnesses consume
// the reduced engine.

// EnumStats reports the model checker's exploration effort.
type EnumStats struct {
	// States counts distinct canonical states admitted to the visited set
	// (branch points and terminals after deterministic closure).
	States int
	// Transitions counts applied transitions, including the deterministic
	// local runs between branch points.
	Transitions int
	// LocalSteps counts the transitions executed deterministically by the
	// partial-order reduction (no branch); Transitions - LocalSteps is the
	// number of explored branch edges.
	LocalSteps int
	// Branches counts states at which more than one processor was explored.
	Branches int
	// PeakFrontier is the deepest DFS spine reached (the peak number of
	// in-progress branch states on the exploration stack).
	PeakFrontier int
	// Outcomes is the number of distinct terminal outcomes.
	Outcomes int
	// Truncated reports that a budget was exhausted and the outcome set is
	// incomplete.
	Truncated bool
}

// EnumerateSCStats exhaustively explores the sequentially consistent state
// space of a program under partial-order reduction: from every canonical
// state, every processor whose next step may interfere with another may
// take the next atomic step, while provably independent steps run
// deterministically. It returns the set of final-state outcome keys
// (OutcomeKey over memory plus the print log) and the exploration
// statistics, or ok=false if the exploration exceeded maxStates (the
// program is too large to enumerate). A maxStates of zero or less selects
// the default budget (4,000,000 states; the partial-order-reduced states
// are cheap enough that the budget is an order of magnitude above the old
// enumerator's).
//
// The outcome set is provably equal to the unreduced enumeration's: the
// reduction only reorders commuting steps (see DESIGN.md §11). This is
// the sound oracle for the differential fuzz tests: a weak-memory outcome
// is a true sequential-consistency violation if and only if it is absent
// from this set.
func EnumerateSCStats(fn *ir.Fn, procs, maxStates int) (map[string]bool, EnumStats, bool) {
	outcomes, stats, ok, _ := EnumerateSCContext(context.Background(), fn, procs, maxStates)
	return outcomes, stats, ok
}

// EnumerateSCContext is EnumerateSCStats under a cancellation/deadline
// context, polled every enumPollStates visited states: an exploration cut
// off by ctx returns no outcome set and an error wrapping ctx.Err(). A
// budget that runs out is still ok=false with a nil error.
func EnumerateSCContext(ctx context.Context, fn *ir.Fn, procs, maxStates int) (map[string]bool, EnumStats, bool, error) {
	if maxStates <= 0 {
		maxStates = DefaultEnumBudget
	}
	st := enumerate(ctx, fn, procs, maxStates, true)
	if st.canceled != nil {
		return nil, st.stats, false, fmt.Errorf("SC enumeration stopped after %d states: %w", st.stats.States, st.canceled)
	}
	if st.stats.Truncated {
		return nil, st.stats, false, nil
	}
	return st.outcomes, st.stats, true, nil
}

// enumPollStates is how many states the enumerator visits between looks at
// its context: at a microsecond or two a state, a millisecond or two.
const enumPollStates = 1024

// DefaultEnumBudget is the default visited-state budget of EnumerateSCStats.
const DefaultEnumBudget = 4_000_000

// enumerate runs the DFS over fn's state space. reduce selects the reduced
// engine: partial-order reduction over the conflict tables, and a visited
// set of 128-bit fingerprints. Without it every step branches and the
// visited set keys on the exact state encoding.
func enumerate(ctx context.Context, fn *ir.Fn, procs, maxStates int, reduce bool) *mcState {
	st := newMCState(fn, procs)
	st.cancel = ctx
	st.maxStates = maxStates
	st.outcomes = map[string]bool{}
	st.reduce, st.exact = reduce, !reduce
	if st.exact {
		st.exactVisited = map[string]struct{}{}
	} else {
		st.visited = map[fp]struct{}{}
	}
	// The transition cap guards against programs whose local computation
	// diverges (an infinite processor-local loop makes no new canonical
	// states, so the state budget alone would never trip).
	st.maxTrans = max(64*maxStates, 1<<22)
	for _, l := range fn.Locals {
		if l.IsArr {
			st.arrayIDs = append(st.arrayIDs, l.ID)
		}
	}
	st.pcBase = make([]uint64, len(fn.Blocks))
	next := uint64(0)
	for _, b := range fn.Blocks {
		st.pcBase[b.ID] = next
		next += uint64(len(b.Stmts)) + 1
	}
	if reduce {
		st.buildReduction()
	}
	st.explore(1)
	st.stats.Outcomes = len(st.outcomes)
	return st
}

// fp is a 128-bit state fingerprint.
type fp struct{ hi, lo uint64 }

// undoKind discriminates trail entries; each entry stores enough of the
// pre-state to invert one mutation.
type undoKind uint8

const (
	uPC      undoKind = iota // proc p was at (blk, a)
	uDone                    // proc p's done flag was a (0/1)
	uScalar                  // proc p's scalar a held val
	uArrElem                 // proc p's local array a element b held val
	uPrint                   // proc p's print log had one line fewer
	uMem                     // shared symbol a element b held val
	uPost                    // event symbol a element b was posted=a? no: val.I
	uLock                    // lock symbol a element b was held by val.I
	uBarWait                 // proc p's barrier-joined flag was a (0/1)
	uBarID                   // the open barrier id was a
)

// undoEntry is one recorded delta on the trail.
type undoEntry struct {
	kind undoKind
	p    int32 // proc, or unused
	a    int32 // local/symbol id, old idx, old flag, old barrier id
	b    int32 // element index
	blk  *ir.Block
	val  ir.Value
}

// mcProc is one processor's state in the model checker.
type mcProc struct {
	blk    *ir.Block
	idx    int
	done   bool
	env    *env
	prints []string
}

// mcState is the SC machine's single mutable state plus the bookkeeping of
// whichever driver runs it: the enumerators fill in the search fields,
// RunSC only steps.
type mcState struct {
	fn    *ir.Fn
	nproc int

	// Shared state, indexed by the checker's dense per-category symbol IDs.
	mem   [][]ir.Value
	posts [][]bool
	locks [][]int

	barID    int
	barWait  []bool
	barCount int

	procs []mcProc

	trail []undoEntry

	// Partial-order reduction tables, built only when reduce is set.
	localOnly []bool       // access id -> empty conflict row
	confRows  [][]uint64   // access id -> conflict row bitset
	future    [][][]uint64 // block id -> stmt position -> reachable-access bitset
	words     int

	// Interned encoding order (computed once; no per-state sorting).
	arrayIDs []ir.LocalID
	// pcBase flattens (block, statement index) control positions into one
	// program-counter space, mirroring how the VM engine flattens blocks
	// into bytecode: pcBase[b] + idx is globally unique because each block
	// contributes len(Stmts)+1 positions (the +1 is "at the terminator").
	// The fingerprint then spends one u64 on a processor's control state
	// instead of two.
	pcBase []uint64

	// reduce runs the partial-order reduction between branch points; exact
	// keys the visited set on the state encoding itself (exactVisited)
	// instead of its fingerprint (visited). Both are fixed for a run.
	reduce, exact bool

	buf          []byte
	visited      map[fp]struct{}
	exactVisited map[string]struct{}
	outcomes     map[string]bool

	maxStates int
	maxTrans  int
	stats     EnumStats

	// cancel is polled every enumPollStates states; canceled is its error
	// once it has one, set together with stats.Truncated.
	cancel   context.Context
	canceled error
}

// newMCState builds the initial state of fn on procs processors: shared
// memory at its declared values, every event unposted and lock free, each
// processor at the entry block.
func newMCState(fn *ir.Fn, procs int) *mcState {
	st := &mcState{
		fn:      fn,
		nproc:   procs,
		mem:     NewMemory(fn.Info, procs).data,
		posts:   make([][]bool, len(fn.Info.Events)),
		locks:   make([][]int, len(fn.Info.Locks)),
		barID:   -1,
		barWait: make([]bool, procs),
	}
	for _, s := range fn.Info.Events {
		st.posts[s.ID] = make([]bool, s.Size)
	}
	for _, s := range fn.Info.Locks {
		held := make([]int, s.Size)
		for i := range held {
			held[i] = -1
		}
		st.locks[s.ID] = held
	}
	for p := 0; p < procs; p++ {
		st.procs = append(st.procs, mcProc{blk: fn.Blocks[0], env: newEnv(fn)})
	}
	return st
}

// buildReduction computes the partial-order reduction's static tables.
// The conflict rows drive both the static "never conflicts with anything"
// fast path and the dynamic ample check against other processors' future
// access sets.
func (st *mcState) buildReduction() {
	conf := conflict.Compute(st.fn)
	n := len(st.fn.Accesses)
	st.words = (n + 63) / 64
	st.localOnly = make([]bool, n)
	st.confRows = make([][]uint64, n)
	for a := 0; a < n; a++ {
		row := conf.Row(a)
		st.confRows[a] = row
		st.localOnly[a] = !slices.ContainsFunc(row, func(w uint64) bool { return w != 0 })
	}
	st.buildFutureTable()
}

// buildFutureTable precomputes, for every (block, statement position), the
// bitset of access ids a processor at that position may still execute
// before joining its next barrier. Position len(stmts) means "at the
// terminator". reach[b] is the fixpoint closure over the CFG, so loops
// conservatively keep their accesses in the future set until the
// processor leaves the loop.
//
// Truncating at barriers is sound for the ample check: a barrier releases
// only once every live processor joins, and the processor p whose pending
// step we want to promote joins its barriers only after that step. So no
// access another processor q has scheduled beyond q's next barrier can
// execute until p's step has already committed — conflicts past the
// barrier cannot interleave with it and need not inhibit the reduction.
// This is what collapses barrier-phased programs (the app kernels): a
// store only branches against conflicts in the *current* phase.
func (st *mcState) buildFutureTable() {
	nb := len(st.fn.Blocks)
	own := make([][]uint64, nb)   // pre-barrier accesses of the block
	gate := make([]bool, nb)      // block contains a barrier
	reach := make([][]uint64, nb) // barrier-truncated closure from block entry
	for _, b := range st.fn.Blocks {
		own[b.ID] = make([]uint64, st.words)
		reach[b.ID] = make([]uint64, st.words)
		for _, s := range b.Stmts {
			acc := ir.AccessOf(s)
			if acc == nil {
				continue
			}
			own[b.ID][acc.ID/64] |= 1 << (uint(acc.ID) % 64)
			if acc.Kind == ir.AccBarrier {
				gate[b.ID] = true
				break
			}
		}
		copy(reach[b.ID], own[b.ID])
	}
	for changed := true; changed; {
		changed = false
		for _, b := range st.fn.Blocks {
			if gate[b.ID] {
				continue
			}
			row := reach[b.ID]
			for _, s := range b.Succs() {
				for w, v := range reach[s.ID] {
					if row[w]|v != row[w] {
						row[w] |= v
						changed = true
					}
				}
			}
		}
	}
	st.future = make([][][]uint64, nb)
	for _, b := range st.fn.Blocks {
		tail := make([]uint64, st.words)
		for _, s := range b.Succs() {
			for w, v := range reach[s.ID] {
				tail[w] |= v
			}
		}
		pos := make([][]uint64, len(b.Stmts)+1)
		pos[len(b.Stmts)] = tail
		for i := len(b.Stmts) - 1; i >= 0; i-- {
			row := make([]uint64, st.words)
			acc := ir.AccessOf(b.Stmts[i])
			if acc != nil && acc.Kind == ir.AccBarrier {
				// Nothing beyond an un-joined barrier can run before us.
				row[acc.ID/64] |= 1 << (uint(acc.ID) % 64)
			} else {
				copy(row, pos[i+1])
				if acc != nil {
					row[acc.ID/64] |= 1 << (uint(acc.ID) % 64)
				}
			}
			pos[i] = row
		}
		st.future[b.ID] = pos
	}
}

// ---- trail -----------------------------------------------------------------

func (st *mcState) revert(mark int) {
	for i := len(st.trail) - 1; i >= mark; i-- {
		e := &st.trail[i]
		switch e.kind {
		case uPC:
			pr := &st.procs[e.p]
			pr.blk, pr.idx = e.blk, int(e.a)
		case uDone:
			st.procs[e.p].done = e.a == 1
		case uScalar:
			st.procs[e.p].env.scalars[e.a] = e.val
		case uArrElem:
			st.procs[e.p].env.arrays[ir.LocalID(e.a)][e.b] = e.val
		case uPrint:
			pr := &st.procs[e.p]
			pr.prints = pr.prints[:len(pr.prints)-1]
		case uMem:
			st.mem[e.a][e.b] = e.val
		case uPost:
			st.posts[e.a][e.b] = e.val.I == 1
		case uLock:
			st.locks[e.a][e.b] = int(e.val.I)
		case uBarWait:
			old := e.a == 1
			if st.barWait[e.p] != old {
				if old {
					st.barCount++
				} else {
					st.barCount--
				}
				st.barWait[e.p] = old
			}
		case uBarID:
			st.barID = int(e.a)
		}
	}
	st.trail = st.trail[:mark]
}

func (st *mcState) savePC(p int) {
	pr := &st.procs[p]
	st.trail = append(st.trail, undoEntry{kind: uPC, p: int32(p), a: int32(pr.idx), blk: pr.blk})
}

func (st *mcState) advance(p int) {
	st.savePC(p)
	st.procs[p].idx++
}

func (st *mcState) setScalar(p int, id ir.LocalID, v ir.Value) {
	pr := &st.procs[p]
	st.trail = append(st.trail, undoEntry{kind: uScalar, p: int32(p), a: int32(id), val: pr.env.scalars[id]})
	pr.env.scalars[id] = v
}

func (st *mcState) setArrElem(p int, id ir.LocalID, idx int64, v ir.Value) {
	arr := st.procs[p].env.arrays[id]
	st.trail = append(st.trail, undoEntry{kind: uArrElem, p: int32(p), a: int32(id), b: int32(idx), val: arr[idx]})
	arr[idx] = v
}

func (st *mcState) setMem(symID int, idx int64, v ir.Value) {
	st.trail = append(st.trail, undoEntry{kind: uMem, a: int32(symID), b: int32(idx), val: st.mem[symID][idx]})
	st.mem[symID][idx] = v
}

func (st *mcState) setPost(symID int, idx int64) {
	st.trail = append(st.trail, undoEntry{kind: uPost, a: int32(symID), b: int32(idx), val: ir.BoolVal(st.posts[symID][idx])})
	st.posts[symID][idx] = true
}

func (st *mcState) setLock(symID int, idx int64, holder int) {
	st.trail = append(st.trail, undoEntry{kind: uLock, a: int32(symID), b: int32(idx), val: ir.IntVal(int64(st.locks[symID][idx]))})
	st.locks[symID][idx] = holder
}

func (st *mcState) setBarWait(p int, joined bool) {
	old := int32(0)
	if st.barWait[p] {
		old = 1
	}
	st.trail = append(st.trail, undoEntry{kind: uBarWait, p: int32(p), a: old})
	if st.barWait[p] != joined {
		if joined {
			st.barCount++
		} else {
			st.barCount--
		}
		st.barWait[p] = joined
	}
}

func (st *mcState) setBarID(id int) {
	st.trail = append(st.trail, undoEntry{kind: uBarID, a: int32(st.barID)})
	st.barID = id
}

func (st *mcState) addPrint(p int, line string) {
	st.trail = append(st.trail, undoEntry{kind: uPrint, p: int32(p)})
	pr := &st.procs[p]
	pr.prints = append(pr.prints, line)
}

// ---- transition relation ---------------------------------------------------

func (st *mcState) ctx(p int) evalCtx { return evalCtx{proc: p, procs: st.nproc} }

// step executes one statement (or terminator) of processor p, recording
// deltas on the trail. It returns progressed=false when the processor is
// blocked (wait on an unposted event, held lock, open barrier) — the
// trail is untouched in that case. This is the package's only SC step
// semantics. A returned error kills the whole path: an enumerator reverts
// to its mark and records no outcome (a runtime error means the weak run
// would have failed too, and the erring processor can never terminate);
// RunSC reports it against p.
func (st *mcState) step(p int) (progressed bool, err error) {
	pr := &st.procs[p]
	if pr.idx >= len(pr.blk.Stmts) {
		return st.terminator(p)
	}
	switch s := pr.blk.Stmts[pr.idx].(type) {
	case *ir.Assign:
		v, err := eval(s.Src, pr.env, st.ctx(p))
		if err != nil {
			return false, err
		}
		st.setScalar(p, s.Dst, v)
		st.advance(p)
	case *ir.SetElem:
		idx, err := evalInt(s.Index, pr.env, st.ctx(p))
		if err != nil {
			return false, err
		}
		if idx < 0 || idx >= int64(len(pr.env.arrays[s.Arr])) {
			return false, fmt.Errorf("local array index %d out of range", idx)
		}
		v, err := eval(s.Src, pr.env, st.ctx(p))
		if err != nil {
			return false, err
		}
		st.setArrElem(p, s.Arr, idx, v)
		st.advance(p)
	case *ir.Load:
		idx, err := st.sharedIndex(p, s.Acc)
		if err != nil {
			return false, err
		}
		st.setScalar(p, s.Dst, st.mem[s.Acc.Sym.ID][idx])
		st.advance(p)
	case *ir.Store:
		idx, err := st.sharedIndex(p, s.Acc)
		if err != nil {
			return false, err
		}
		v, err := eval(s.Src, pr.env, st.ctx(p))
		if err != nil {
			return false, err
		}
		st.setMem(s.Acc.Sym.ID, idx, v)
		st.advance(p)
	case *ir.SyncOp:
		return st.syncOp(p, s.Acc)
	case *ir.Print:
		line := fmt.Sprintf("[p%d]", p)
		for _, a := range s.Args {
			if a.IsStr {
				line += " " + a.Str
			} else {
				v, err := eval(a.E, pr.env, st.ctx(p))
				if err != nil {
					return false, err
				}
				line += " " + v.String()
			}
		}
		st.addPrint(p, line)
		st.advance(p)
	default:
		return false, fmt.Errorf("unhandled statement %T", pr.blk.Stmts[pr.idx])
	}
	return true, nil
}

func (st *mcState) terminator(p int) (bool, error) {
	pr := &st.procs[p]
	switch t := pr.blk.Term.(type) {
	case *ir.Jump:
		st.savePC(p)
		pr.blk, pr.idx = t.To, 0
	case *ir.Branch:
		v, err := eval(t.Cond, pr.env, st.ctx(p))
		if err != nil {
			return false, err
		}
		st.savePC(p)
		if v.IsTrue() {
			pr.blk = t.Then
		} else {
			pr.blk = t.Else
		}
		pr.idx = 0
	case *ir.Ret:
		st.trail = append(st.trail, undoEntry{kind: uDone, p: int32(p)})
		pr.done = true
	default:
		return false, fmt.Errorf("missing terminator")
	}
	return true, nil
}

func (st *mcState) sharedIndex(p int, acc *ir.Access) (int64, error) {
	idx := int64(0)
	if acc.Index != nil {
		v, err := evalInt(acc.Index, st.procs[p].env, st.ctx(p))
		if err != nil {
			return 0, err
		}
		idx = v
	}
	if idx < 0 || idx >= acc.Sym.Size {
		return 0, fmt.Errorf("index %d out of range for %s[%d]", idx, acc.Sym.Name, acc.Sym.Size)
	}
	return idx, nil
}

func (st *mcState) syncIndex(p int, acc *ir.Access, size int) (int64, error) {
	idx := int64(0)
	if acc.Index != nil {
		v, err := evalInt(acc.Index, st.procs[p].env, st.ctx(p))
		if err != nil {
			return 0, err
		}
		idx = v
	}
	if idx < 0 || idx >= int64(size) {
		return 0, fmt.Errorf("sync index %d out of range for %s", idx, acc.Sym.Name)
	}
	return idx, nil
}

func (st *mcState) syncOp(p int, acc *ir.Access) (bool, error) {
	switch acc.Kind {
	case ir.AccPost:
		flags := st.posts[acc.Sym.ID]
		idx, err := st.syncIndex(p, acc, len(flags))
		if err != nil {
			return false, err
		}
		if flags[idx] {
			return false, fmt.Errorf("event %s posted twice", acc.Sym.Name)
		}
		st.setPost(acc.Sym.ID, idx)
		st.advance(p)
	case ir.AccWait:
		flags := st.posts[acc.Sym.ID]
		idx, err := st.syncIndex(p, acc, len(flags))
		if err != nil {
			return false, err
		}
		if !flags[idx] {
			return false, nil // blocked
		}
		st.advance(p)
	case ir.AccLock:
		held := st.locks[acc.Sym.ID]
		idx, err := st.syncIndex(p, acc, len(held))
		if err != nil {
			return false, err
		}
		if held[idx] != -1 {
			return false, nil // blocked
		}
		st.setLock(acc.Sym.ID, idx, p)
		st.advance(p)
	case ir.AccUnlock:
		held := st.locks[acc.Sym.ID]
		idx, err := st.syncIndex(p, acc, len(held))
		if err != nil {
			return false, err
		}
		if held[idx] != p {
			return false, fmt.Errorf("unlock of %s not held by this processor", acc.Sym.Name)
		}
		st.setLock(acc.Sym.ID, idx, -1)
		st.advance(p)
	case ir.AccBarrier:
		if st.barWait[p] {
			return false, nil // joined, waiting for the release
		}
		if st.barID == -1 {
			st.setBarID(acc.ID)
		} else if st.barID != acc.ID {
			return false, fmt.Errorf("barrier misalignment: a%d vs a%d", acc.ID, st.barID)
		}
		st.setBarWait(p, true)
		live := 0
		for q := range st.procs {
			if !st.procs[q].done {
				live++
			}
		}
		if st.barCount == live {
			for q := range st.procs {
				if st.barWait[q] {
					st.setBarWait(q, false)
					st.advance(q)
				}
			}
			st.setBarID(-1)
		}
	default:
		return false, fmt.Errorf("unhandled sync op %s", acc.Kind)
	}
	return true, nil
}

// ---- partial-order reduction ----------------------------------------------

// safeNext reports whether processor p's next step is provably
// independent of every step any other live processor may still take, so
// it can be executed deterministically without branching. Local
// statements, prints, and control flow touch only p's private state;
// data accesses qualify when their conflict row misses every other live
// processor's future access set (the dynamic ample check). Sync
// operations always branch.
func (st *mcState) safeNext(p int) bool {
	pr := &st.procs[p]
	if pr.idx >= len(pr.blk.Stmts) {
		return true // terminator: pure local control flow
	}
	switch s := pr.blk.Stmts[pr.idx].(type) {
	case *ir.Assign, *ir.SetElem, *ir.Print:
		return true
	case *ir.Load:
		return st.dataSafe(p, s.Acc)
	case *ir.Store:
		return st.dataSafe(p, s.Acc)
	default:
		return false
	}
}

func (st *mcState) dataSafe(p int, acc *ir.Access) bool {
	if st.localOnly[acc.ID] {
		return true
	}
	row := st.confRows[acc.ID]
	for q := range st.procs {
		if q == p || st.procs[q].done {
			continue
		}
		qr := &st.procs[q]
		fut := st.future[qr.blk.ID][qr.idx]
		for w, m := range row {
			if m&fut[w] != 0 {
				return false
			}
		}
	}
	return true
}

// runLocal drives every processor through its safe steps until no safe
// step remains (the canonical state). Safety is monotone in the other
// processors' progress, so a single fixpoint loop reaches the unique
// closure regardless of processor order. Returns an error when a safe
// step raises a runtime error (the path records no outcome) or the
// transition budget trips.
func (st *mcState) runLocal() error {
	for changed := true; changed; {
		changed = false
		for p := range st.procs {
			for !st.procs[p].done && st.safeNext(p) {
				progressed, err := st.step(p)
				if err != nil {
					return err
				}
				if !progressed {
					break
				}
				st.stats.Transitions++
				st.stats.LocalSteps++
				if st.stats.Transitions > st.maxTrans {
					st.stats.Truncated = true
					return fmt.Errorf("transition budget exhausted")
				}
				changed = true
			}
		}
	}
	return nil
}

// explore runs the undo-log DFS from the current state: deterministic
// closure, visited-set check, then one branch per enabled processor.
func (st *mcState) explore(depth int) {
	if st.stats.Truncated {
		return
	}
	if depth > st.stats.PeakFrontier {
		st.stats.PeakFrontier = depth
	}
	mark := len(st.trail)
	if st.reduce {
		if err := st.runLocal(); err != nil {
			st.revert(mark)
			return
		}
	}
	st.encode()
	if st.exact {
		if _, seen := st.exactVisited[string(st.buf)]; seen {
			st.revert(mark)
			return
		}
		st.exactVisited[string(st.buf)] = struct{}{}
	} else {
		f := hash128(st.buf)
		if _, seen := st.visited[f]; seen {
			st.revert(mark)
			return
		}
		st.visited[f] = struct{}{}
	}
	st.stats.States++
	if st.stats.States > st.maxStates {
		st.stats.Truncated = true
		st.revert(mark)
		return
	}
	if st.stats.States%enumPollStates == 0 {
		if err := st.cancel.Err(); err != nil {
			st.stats.Truncated, st.canceled = true, err
			st.revert(mark)
			return
		}
	}

	allDone := true
	for p := range st.procs {
		if !st.procs[p].done {
			allDone = false
			break
		}
	}
	if allDone {
		st.outcomes[st.outcomeKey()] = true
		st.revert(mark)
		return
	}

	branches := 0
	for p := range st.procs {
		if st.procs[p].done {
			continue
		}
		m2 := len(st.trail)
		progressed, err := st.step(p)
		if err != nil || !progressed {
			st.revert(m2)
			continue
		}
		st.stats.Transitions++
		branches++
		st.explore(depth + 1)
		st.revert(m2)
		if st.stats.Truncated {
			break
		}
	}
	if branches >= 2 {
		st.stats.Branches++
	}
	// branches == 0 with live processors is a deadlock: no outcome.
	st.revert(mark)
}

// outcomeKey renders the current (terminal) state's outcome.
func (st *mcState) outcomeKey() string {
	return OutcomeKey(st.snapshot(), st.allPrints())
}

// snapshot copies shared memory out by symbol name.
func (st *mcState) snapshot() map[string][]ir.Value {
	snap := make(map[string][]ir.Value, len(st.fn.Info.Shared))
	for _, sym := range st.fn.Info.Shared {
		snap[sym.Name] = append([]ir.Value(nil), st.mem[sym.ID]...)
	}
	return snap
}

// allPrints is every processor's print log, processor by processor.
func (st *mcState) allPrints() []string {
	var prints []string
	for p := range st.procs {
		prints = append(prints, st.procs[p].prints...)
	}
	return prints
}

// ---- state fingerprinting --------------------------------------------------

func (st *mcState) putU64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	st.buf = append(st.buf, b[:]...)
}

func (st *mcState) putVal(v ir.Value) {
	if v.T == source.TypeFloat {
		st.buf = append(st.buf, 1)
		st.putU64(math.Float64bits(v.F))
	} else {
		st.buf = append(st.buf, 0)
		st.putU64(uint64(v.I))
	}
}

// encode writes the whole state into the reused flat buffer — shared
// memory, sync objects, and per-processor control, locals, and print logs,
// all in interned (dense-ID) order. The encoding is injective; the reduced
// engine hashes it to 128 bits (hash128), the reference keys on it as is.
// No sorting, maps, or fmt on this path.
func (st *mcState) encode() {
	st.buf = st.buf[:0]
	for _, vals := range st.mem {
		for _, v := range vals {
			st.putVal(v)
		}
	}
	for _, flags := range st.posts {
		for _, f := range flags {
			if f {
				st.buf = append(st.buf, 1)
			} else {
				st.buf = append(st.buf, 0)
			}
		}
	}
	for _, held := range st.locks {
		for _, h := range held {
			st.putU64(uint64(int64(h)))
		}
	}
	st.putU64(uint64(int64(st.barID)))
	for _, w := range st.barWait {
		if w {
			st.buf = append(st.buf, 1)
		} else {
			st.buf = append(st.buf, 0)
		}
	}
	for p := range st.procs {
		pr := &st.procs[p]
		// Control state as one flat program counter (see pcBase).
		st.putU64((st.pcBase[pr.blk.ID]+uint64(pr.idx))<<1 | boolBit(pr.done))
		for _, v := range pr.env.scalars {
			st.putVal(v)
		}
		for _, id := range st.arrayIDs {
			for _, v := range pr.env.arrays[id] {
				st.putVal(v)
			}
		}
		st.putU64(uint64(len(pr.prints)))
		for _, line := range pr.prints {
			st.putU64(uint64(len(line)))
			st.buf = append(st.buf, line...)
		}
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// hash128 fingerprints a buffer with two interleaved multiply-xor streams
// (wyhash-style mum mixing), eight bytes per step. Collisions between
// distinct states would merge them in the visited set; at 128 bits the
// probability is negligible for any reachable budget, and the
// differential suite cross-checks the outcome sets against the unreduced
// enumerator.
func hash128(b []byte) fp {
	const (
		k0 = 0x9e3779b97f4a7c15
		k1 = 0xc2b2ae3d27d4eb4f
		k2 = 0x165667b19e3779f9
	)
	h0 := uint64(len(b))*k0 + k1
	h1 := uint64(len(b)) ^ k2
	i := 0
	for ; i+8 <= len(b); i += 8 {
		w := binary.LittleEndian.Uint64(b[i:])
		hi, lo := bits.Mul64(w^k1, h0^k0)
		h0 = hi ^ lo ^ (w + k2)
		hi, lo = bits.Mul64(w^k0, h1^k1)
		h1 = hi ^ lo ^ bits.RotateLeft64(w, 32)
	}
	var tail uint64
	for ; i < len(b); i++ {
		tail = tail<<8 | uint64(b[i])
	}
	hi, lo := bits.Mul64(tail^k2, h0^k1)
	h0 = hi ^ lo
	hi, lo = bits.Mul64(tail^k1, h1^k2)
	h1 = hi ^ lo ^ tail
	h0 ^= h0 >> 32
	h1 ^= h1 >> 32
	return fp{h0, h1}
}
