package interp

import (
	"fmt"
	"math"

	"repro/internal/delay"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/target"
	"repro/internal/vm"
)

// RunOptions configures the weak-memory executor.
type RunOptions struct {
	// Jitter randomizes each message's wire latency by up to this fraction
	// (adaptive-routing effects); zero is fully deterministic.
	Jitter float64
	// Seed seeds the jitter generator.
	Seed int64
	// VerifyDelays, when non-nil, makes the executor assert at every
	// access initiation that all delay-predecessor gets and puts have
	// completed — an independent runtime check that the generated code
	// (sync placement, one-way conversion, motion) actually enforces the
	// delay set. Store predecessors are excluded: their completion is
	// tied to barriers, which the outcome tests cover.
	VerifyDelays *delay.Set
	// Perturb randomizes the processing order of simultaneous events
	// (seeded by Seed). Only legal reorderings are explored: messages
	// arriving at the same instant race in a real network, so their
	// relative order is free, while intra-operation orderings (a get's
	// sample before its landing, landings before the issuing processor's
	// resume) are preserved. Combined with Jitter this gives the
	// SC verifier schedule diversity beyond latency variation.
	Perturb bool
	// Tap, when non-nil, observes every execution event (see Tap).
	Tap Tap
	// MaxEvents bounds the simulation (0 means 50 million).
	MaxEvents int
}

// ProcStats counts one processor's activity.
type ProcStats struct {
	Cycles     float64 // completion time of this processor
	Busy       float64 // cycles the CPU was doing work (not waiting)
	Gets       int     // remote split-phase reads issued
	Puts       int     // remote acknowledged writes issued
	Stores     int     // remote one-way writes issued
	LocalAcc   int     // shared accesses served by the local module
	AcksRecv   int     // acknowledgements/replies processed
	Barriers   int
	LockOps    int
	PostsWaits int
}

// Result is the outcome of a weak-memory run.
type Result struct {
	Time     float64 // makespan in cycles
	Stats    []ProcStats
	Memory   map[string][]ir.Value
	Prints   []string // per-processor output, proc-major order
	Messages int      // network messages (requests, replies, acks)
	Events   int      // simulator events dispatched (perf diagnostics)
}

// evKind discriminates the simulator's event types. Events used to be
// closures (`run func()`), which cost one heap allocation per event plus
// an indirect call; the typed struct dispatched by switch keeps the hot
// loop allocation-free (events are recycled through a free list).
type evKind uint8

const (
	// Resumes and get-read samples are not evKinds: they are encoded
	// directly in their queue entries (evqEntry.ref < 0) and never
	// allocate a store event.
	evMemWrite evKind = iota // apply a put/store write at its arrival time
	evPost                   // post handler at the event object's manager
	evLockReq                // lock request handler at the lock's manager
	evLockRel                // unlock handler at the lock's manager
)

// landRec is one outstanding get landing: the sampled value drops into the
// destination local at the completion time. Landings never enter the event
// queue — a landing's only observable effect is the scalar write, and the
// owning processor cannot look before its next resume, so each processor
// keeps a private list, indexed in key order, and the resume applies every
// landing whose key precedes the resume event's. This halves the queue's
// traffic (and its depth, which sets the per-pop sift cost) while
// dispatching landings in exactly the order the queue would have.
type landRec struct {
	t         float64
	pri       float64
	seq       int64
	arr       float64 // the read's arrival time (its queue key; seq-1)
	idx       int64   // element index the read samples
	dst       int32
	symID     int32 // shared symbol the read samples
	dyn       int32 // dynamic-op id for the Tap; -1/0 when untapped
	deposited bool  // the read has been sampled into val; holds once applied
	val       ir.Value
}

// landBefore reports whether the landing's key precedes (t, pri, seq) in
// the event order.
func (l *landRec) landBefore(t, pri float64, seq int64) bool {
	if l.t != t {
		return l.t < t
	}
	if l.pri != pri {
		return l.pri < pri
	}
	return l.seq < seq
}

// arrBefore reports whether the landing's read-arrival key — the key its
// queued get-read entry carries (or, for a lazy read, would have carried)
// — precedes (t, pri, seq). The read entry is allocated the seq
// immediately before the landing's, so the arrival key is
// (arr, pri, seq-1).
func (l *landRec) arrBefore(t, pri float64, seq int64) bool {
	if l.arr != t {
		return l.arr < t
	}
	if l.pri != pri {
		return l.pri < pri
	}
	return l.seq-1 < seq
}

// event is one scheduled simulator action: a kind, the processor it
// concerns, and the operation's payload. Fields beyond t/seq/kind are
// meaningful only for the kinds that use them.
//
// The struct is deliberately pointer-free: processors, partner events,
// event/lock objects, and access records are named by dense indices
// resolved through the sim at dispatch. Pointer-free events make the
// paged store and the priority queue's entries invisible to the garbage
// collector — no write barriers on the queue's sift copies (which
// dominated the profile) and no scan work proportional to outstanding
// events.
type event struct {
	t     float64
	pri   float64 // perturbation tie-break band; 0 unless Perturb is on
	seq   int64
	self  evRef // this event's slot in the store (queue entries carry refs)
	kind  evKind
	proc  int32 // evPost, evLockReq, evLockRel
	dyn   int32 // dynamic-op id for the Tap; -1/0 when untapped
	symID int32 // evMemWrite; object symbol for evPost/evLock*
	accID int32 // evPost, evLockReq, evLockRel (diagnostics)
	idx   int64 // element index: evMemWrite, evPost, evLock*
	val   ir.Value
}

// evRef names an event's slot in the paged event store.
type evRef = int32

// Pages are deliberately small: with resumes and get-reads inlined in the
// queue, only writes/posts/lock traffic hits the store, and the free list
// recycles those — steady state is a page or two.
const (
	evPageShift = 5
	evPageSize  = 1 << evPageShift
	evPageMask  = evPageSize - 1
)

// evStore bump-allocates events in fixed pages. Pages never move, so
// *event pointers stay valid across allocations, while events themselves
// are named by dense refs the queue can carry without pointers.
type evStore struct {
	pages [][]event
	used  int // slots handed out; trailing slots of the last page are free
}

func (st *evStore) at(r evRef) *event {
	return &st.pages[r>>evPageShift][r&evPageMask]
}

// alloc hands out the next slot, zeroed: a Runner rewinds used between
// runs, so the slot may hold an earlier run's event.
func (st *evStore) alloc() (*event, evRef) {
	if st.used == len(st.pages)<<evPageShift {
		st.pages = append(st.pages, make([]event, evPageSize))
	}
	r := evRef(st.used)
	st.used++
	e := st.at(r)
	*e = event{self: r}
	return e, r
}

// pendingOp is one outstanding split-phase operation on a counter.
type pendingOp struct {
	t   float64 // completion time
	ack bool    // a reply/ack arrives and costs RecvOv of handler time
}

type ctrState struct {
	pending []pendingOp // outstanding operations since the last sync
	// last is the latest completion among pending, 0 while pending is
	// empty: a sync_ctr's wake time without a scan of the list.
	last float64
}

// accInfo is one data access's static facts, resolved once per Runner so
// that the host path of a get, put or store reads one record: the shared
// symbol's dense ID and extent, and its owner rule (Memory.ownerBy).
// Synchronization accesses leave their entry zero.
type accInfo struct {
	symID    int32
	ownKind  uint8
	size     int64
	ownParam int64
}

// charge advances the processor's clock by CPU work (tracked as busy time,
// in contrast to waiting, which only advances the clock).
func (p *proc) charge(c float64) {
	p.time += c
	p.stats.Busy += c
}

// chargeN charges c n times, as n separate additions: the VM batches the
// ALU charges of the statements between host calls, and they must round
// exactly as charging each statement as it runs does.
func (p *proc) chargeN(n int, c float64) {
	t, b := p.time, p.stats.Busy
	for ; n > 0; n-- {
		t += c
		b += c
	}
	p.time, p.stats.Busy = t, b
}

type proc struct {
	id       int
	time     float64
	env      *env
	ctrs     []ctrState
	waiting  bool // two-phase flag for post/wait/lock/barrier
	wakeTime float64
	pendDyn  int // dynamic-op id of the in-flight blocking op (tap)
	barEp    int // barrier episode joined at arrival (tap)
	// ctrWait is the counter of the sync_ctr that yielded, finished by the
	// next resume (finishSyncCtr); -1 when none is.
	ctrWait int32
	// lands holds get landings, applied at a later resume (see landRec);
	// live indexes the slots not yet applied, in landing-key order. Slots
	// never move — queued reads name them — and the list resets once live
	// is empty.
	lands []landRec
	live  []int32
	// lastCompletion[acc] is the latest computed completion time among
	// this processor's issues of get/put access acc (delay verification).
	lastCompletion []float64
	storeMax       float64 // latest arrival among stores issued so far
	done           bool
	stats          ProcStats
	prints         []string
}

type eventObj struct {
	posted  bool
	arrival float64
	postDyn int // dynamic-op id of the post (tap bookkeeping)
	waiters []*proc
}

// lockWaiter is one queued lock request: the blocked processor plus the
// dynamic-op id of its lock operation (tap bookkeeping).
type lockWaiter struct {
	p   *proc
	dyn int
}

type lockObj struct {
	held    bool
	queue   []lockWaiter
	free    float64 // time the lock became free at the manager
	lastRel int     // dynamic-op id of the latest unlock; -1 when never held
}

type barrierState struct {
	arrived []float64 // per-proc arrival time; -1 when not arrived
	n       int       // processors arrived in the open episode
	accID   int
	release float64
}

type sim struct {
	prog  *target.Prog
	cfg   machine.Config
	opts  RunOptions
	rng   schedRNG // consulted only under Jitter or Perturb
	queue evq
	seq   int64
	mem   *Memory
	// accs[a] holds data access a's static facts (see accInfo).
	accs []accInfo
	// eng runs the processors' blocks; resume delegates to it.
	eng blockEngine
	// evs and lks are indexed by the checker's dense per-category symbol
	// IDs (Symbol.ID), replacing per-access map lookups.
	evs   [][]eventObj
	lks   [][]lockObj
	procs []*proc
	bar   barrierState
	// store pages all events; free recycles popped refs so steady state
	// needs no per-event allocation.
	store evStore
	free  []evRef
	// delayPreds[b] lists delay predecessors of access b (verification).
	delayPreds [][]int
	tap        Tap
	nDyn       int // next dynamic-op id
	barEp      int // open barrier episode number
	msgs       int
	last       float64
	err        error
	nEv        int
	// lazy makes get-reads skip the event queue: a read is sampled at the
	// first later-keyed point that could disturb or observe its cell — a
	// memory write's dispatch (forceReads) or its landing's application
	// (applyLands). Memory changes only at evMemWrite dispatch, and run
	// order, seq allocation and the deliver stamps made at issue are
	// untouched, so event objects and locks do not matter. The
	// gate is the untapped deterministic run: a tap sees reads' MemEffects
	// in dispatch order, which this changes, and seeded schedules (Jitter,
	// Perturb) stay on the queued path lazy_diff_test.go holds this one to.
	lazy bool
	// minArr is a lower bound on the arrival time of every lazy read not
	// yet sampled (+Inf when there is none): issueGetAt lowers it, the
	// forcing scan it triggers recomputes it exactly. A write dispatching
	// before it has nothing to force and skips the scan.
	minArr float64
	// queueReads and onWrite are test hooks (export_test.go): force every
	// read through the queue; observe each evMemWrite dispatch.
	queueReads bool
	onWrite    func(e *event)
}

// blockEngine runs processors' blocks between yields. Every run uses the
// bytecode VM; the package's tests substitute the AST walker, the VM's
// differential reference (walker_test.go).
type blockEngine interface {
	// Reset rewinds every processor to the program's entry.
	Reset()
	// Resume runs processor p until it yields, fails, or rets.
	Resume(p int)
	// Done reports whether p has executed its ret.
	Done(p int) bool
	// Where returns the block and statement index p is stopped at.
	Where(p int) (blk, stmt int)
}

// Run executes the target program on the simulated machine. It runs on the
// Runner parked on prog if that Runner was made for cfg, on a new one
// otherwise, and parks the Runner afterwards unless another one already is:
// every run of one compiled program after the first reuses one simulator.
// A run that returns an error is parked (the next run's reset discards what
// it left); a run that panics is not.
func Run(prog *target.Prog, cfg machine.Config, opts RunOptions) (*Result, error) {
	var r *Runner
	if box := prog.ParkedRunner(); box != nil {
		if p := (*box).(*Runner); p.s.cfg == cfg && prog.TakeRunner(box) {
			r = p
		}
	}
	if r == nil {
		var err error
		if r, err = NewRunner(prog, cfg); err != nil {
			return nil, err
		}
	}
	res, err := r.Run(opts)
	prog.ParkRunner(&r.self)
	return res, err
}

// Runner holds the simulator state of one (program, machine) pair — shared
// memory, the per-processor slabs and environments, the event store and
// queue, the bytecode machine's frames — so that a caller making many runs
// of one program sets it up once: Run parks one on each program it runs,
// and the SC verifier holds one per level for its schedule grid. Every Run
// resets that state in place and re-seeds; a run's Result shares nothing
// with the Runner, so callers may keep it across later runs. A Runner is
// not safe for concurrent use.
type Runner struct {
	s sim
	// vmm and the host it calls are made by the first run on the bytecode
	// VM.
	vmm  *vm.Machine
	host *vmHost
	// walker, when set, runs blocks in vmm's place: a test hook
	// (export_test.go).
	walker blockEngine
	// lastCompletion backs the processors' delay-verification tables.
	lastCompletion []float64
	// self holds the Runner itself: the box Run parks on the program.
	self any
}

// NewRunner prepares a Runner for prog on the machine cfg.
func NewRunner(prog *target.Prog, cfg machine.Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	info := prog.Fn.Info
	r := &Runner{s: sim{
		prog:  prog,
		cfg:   cfg,
		mem:   NewMemory(info, cfg.Procs),
		queue: newEvq(6*cfg.Procs + 64),
		bar:   barrierState{arrived: make([]float64, cfg.Procs)},
		evs:   make([][]eventObj, len(info.Events)),
		lks:   make([][]lockObj, len(info.Locks)),
		procs: make([]*proc, cfg.Procs),
	}}
	r.self = r
	s := &r.s
	s.accs = make([]accInfo, len(prog.Fn.Accesses))
	for _, acc := range prog.Fn.Accesses {
		if acc.Kind == ir.AccRead || acc.Kind == ir.AccWrite {
			id := acc.Sym.ID
			s.accs[acc.ID] = accInfo{symID: int32(id), ownKind: s.mem.ownKind[id], size: acc.Sym.Size, ownParam: s.mem.ownParam[id]}
		}
	}
	for _, sym := range info.Events {
		s.evs[sym.ID] = make([]eventObj, sym.Size)
	}
	for _, sym := range info.Locks {
		s.lks[sym.ID] = make([]lockObj, sym.Size)
	}
	// One slab apiece for the proc structs, counter states, landing lists
	// and their key-order indexes: a few allocations for the whole machine
	// instead of a few per processor. Three-index subslices keep a growing
	// list from spilling into its neighbor's region.
	procSlab := make([]proc, cfg.Procs)
	ctrSlab := make([]ctrState, cfg.Procs*prog.Counters)
	pendSlab := make([]pendingOp, 8*cfg.Procs*prog.Counters)
	landSlab := make([]landRec, 8*cfg.Procs)
	liveSlab := make([]int32, 8*cfg.Procs)
	for i := range ctrSlab {
		ctrSlab[i].pending = pendSlab[i*8 : i*8 : (i+1)*8]
	}
	for p := range procSlab {
		pr := &procSlab[p]
		pr.id = p
		pr.env = newEnv(prog.Fn)
		pr.ctrs = ctrSlab[p*prog.Counters : (p+1)*prog.Counters : (p+1)*prog.Counters]
		pr.lands = landSlab[p*8 : p*8 : (p+1)*8]
		pr.live = liveSlab[p*8 : p*8 : (p+1)*8]
		s.procs[p] = pr
	}
	return r, nil
}

// reset returns the simulator to its state before the first event of a run
// under opts. Whatever the previous run left — a drained queue, or the
// wreckage of a run that failed midway — is discarded here, not at the end
// of that run.
func (r *Runner) reset(opts RunOptions) error {
	s := &r.s
	prog, cfg := s.prog, s.cfg
	s.opts, s.tap = opts, opts.Tap
	s.queue.reset()
	s.store.used, s.free = 0, s.free[:0]
	s.seq, s.nDyn, s.barEp, s.msgs, s.last, s.err, s.nEv = 0, 0, 0, 0, 0, nil, 0
	s.rng.seed(opts.Seed)
	s.lazy = opts.Tap == nil && !opts.Perturb && opts.Jitter == 0 && !s.queueReads
	s.minArr = math.Inf(1)
	s.mem.reset()
	s.bar.n, s.bar.accID, s.bar.release = 0, -1, 0
	for i := range s.bar.arrived {
		s.bar.arrived[i] = -1
	}
	for _, arr := range s.evs {
		for i := range arr {
			arr[i] = eventObj{waiters: arr[i].waiters[:0]}
		}
	}
	for _, arr := range s.lks {
		for i := range arr {
			arr[i] = lockObj{queue: arr[i].queue[:0], lastRel: -1}
		}
	}
	s.delayPreds = nil
	if opts.VerifyDelays != nil {
		n := len(prog.Fn.Accesses)
		s.delayPreds = make([][]int, n)
		for _, pr := range opts.VerifyDelays.Pairs() {
			s.delayPreds[pr.B] = append(s.delayPreds[pr.B], pr.A)
		}
		if r.lastCompletion == nil {
			r.lastCompletion = make([]float64, cfg.Procs*n)
		}
		for i := range r.lastCompletion {
			r.lastCompletion[i] = -1
		}
	}
	s.eng = r.walker
	if s.eng == nil {
		if r.vmm == nil {
			code, err := vm.Compiled(prog)
			if err != nil {
				return err
			}
			r.host = &vmHost{s: s}
			r.vmm = vm.NewMachine(code, r.host, cfg.Procs)
			// Frames alias the processors' env storage, so get landings
			// (applyLands writes env.scalars) reach the VM's locals.
			for _, pr := range s.procs {
				r.vmm.SetFrame(pr.id, pr.env.scalars, pr.env.arrays)
			}
		}
		r.host.calls = hostCalls{}
		// With no tap attached, per-block EnterBlock callbacks observe
		// nothing; eliding them defers ALU charges across block boundaries
		// but keeps the additions in order, so clocks match.
		r.vmm.SetTrace(s.tap != nil)
		s.eng = r.vmm
	}
	s.eng.Reset()
	for _, pr := range s.procs {
		for i := range pr.ctrs {
			pr.ctrs[i] = ctrState{pending: pr.ctrs[i].pending[:0]}
		}
		pr.env.reset(prog.Fn)
		*pr = proc{
			id:      pr.id,
			env:     pr.env,
			ctrs:    pr.ctrs,
			ctrWait: -1,
			lands:   pr.lands[:0],
			live:    pr.live[:0],
			prints:  pr.prints[:0],
		}
		if s.delayPreds != nil {
			n := len(prog.Fn.Accesses)
			pr.lastCompletion = r.lastCompletion[pr.id*n : (pr.id+1)*n]
		}
		if s.tap != nil {
			s.tap.Block(pr.id, 0)
		}
		s.scheduleResume(0, pr)
	}
	return nil
}

// Run executes the program once under opts. However the run ends, the
// Runner then drops what belongs to the caller — the tap, the delay set,
// the rest of opts — so that a parked Runner keeps none of it alive.
func (r *Runner) Run(opts RunOptions) (*Result, error) {
	res, err := r.run(opts)
	s := &r.s
	s.tap, s.opts, s.delayPreds, s.err = nil, RunOptions{}, nil, nil
	return res, err
}

func (r *Runner) run(opts RunOptions) (*Result, error) {
	if opts.MaxEvents == 0 {
		opts.MaxEvents = 50_000_000
	}
	if err := r.reset(opts); err != nil {
		return nil, err
	}
	s := &r.s
	q := &s.queue
	for q.len() > 0 && s.err == nil {
		// count(1), in line.
		if s.nEv++; s.nEv > s.opts.MaxEvents {
			s.overBudget()
			break
		}
		// Pop, taking the run's head in line: the run holds most of the
		// queue's traffic.
		var ent evqEntry
		if q.headFirst() {
			ent = q.run[q.head&(len(q.run)-1)]
			q.head++
		} else {
			ent = q.popHeap()
		}
		if ent.t > s.last {
			s.last = ent.t
		}
		if ent.ref < 0 {
			// Inline event: the payload is the entry itself.
			p := s.procs[-(ent.ref + 1)]
			if ent.aux < 0 {
				// A resume: apply the landings due before it, finish the
				// sync_ctr it ends, run on. Most resumes have no landing
				// due, or one: the only landing pending.
				if n := len(p.live); n > 0 {
					switch l := &p.lands[p.live[0]]; {
					case !l.landBefore(ent.t, ent.pri, ent.seq):
					case n == 1:
						s.land(p, l)
						p.live, p.lands = p.live[:0], p.lands[:0]
					default:
						s.applyLands(p, ent.t, ent.pri, ent.seq)
					}
				}
				if p.ctrWait >= 0 {
					s.finishSyncCtr(p)
				}
				s.resume(p)
			} else {
				s.depositRead(p, ent.aux, ent.t, ent.seq)
			}
			continue
		}
		e := s.store.at(ent.ref)
		s.dispatch(e)
		s.free = append(s.free, e.self)
	}
	if s.err != nil {
		return nil, s.err
	}
	// Landings from gets that were never synced before ret still complete
	// on the wire; account them like the drained queue would have. The
	// drain's events count against the budget like the loop's.
	for _, p := range s.procs {
		s.applyLands(p, math.Inf(1), 0, s.seq+1)
	}
	if !s.count(0) {
		return nil, s.err
	}
	for _, p := range s.procs {
		if !p.done {
			blk, idx := s.eng.Where(p.id)
			return nil, fmt.Errorf("deadlock: proc %d blocked at block %d stmt %d", p.id, blk, idx)
		}
	}
	res := &Result{
		Time:     s.last,
		Stats:    make([]ProcStats, 0, len(s.procs)),
		Memory:   s.mem.Snapshot(),
		Messages: s.msgs,
		Events:   s.nEv,
	}
	for _, p := range s.procs {
		p.stats.Cycles = p.time
		res.Stats = append(res.Stats, p.stats)
		res.Prints = append(res.Prints, p.prints...)
		if p.time > res.Time {
			res.Time = p.time
		}
	}
	return res, nil
}

// alloc hands out an event without scheduling it: recycled from the free
// list when possible, bump-allocated from the store otherwise. Under
// perturbation it also draws the event's tie-break priority. Resume
// entries (scheduled inline by scheduleResume) draw from a later band than
// message/memory events, so at equal timestamps a processor only proceeds
// after all same-time deliveries are applied — the invariant the
// deterministic seq order provides today — while the deliveries themselves
// race in random order, as they may on a real network.
func (s *sim) alloc(t float64, kind evKind) *event {
	var e *event
	if n := len(s.free); n > 0 {
		r := s.free[n-1]
		s.free = s.free[:n-1]
		e = s.store.at(r)
		*e = event{}
		e.self = r
	} else {
		e, _ = s.store.alloc()
	}
	s.seq++
	e.t, e.seq, e.kind = t, s.seq, kind
	if s.opts.Perturb {
		e.pri = s.rng.Float64()
	}
	return e
}

// push schedules an allocated event. Heap order consults t, pri, and seq,
// so callers that need to constrain an event's priority (a get's landing
// must follow its sample at equal time) set pri between alloc and push.
func (s *sim) push(e *event) *event {
	s.queue.push(e)
	return e
}

// newEvent allocates and schedules in one step. Callers fill in the
// payload fields after the call.
func (s *sim) newEvent(t float64, kind evKind) *event {
	return s.push(s.alloc(t, kind))
}

func (s *sim) scheduleResume(t float64, p *proc) {
	s.seq++
	pri := 0.0
	if s.opts.Perturb {
		pri = s.resumeBand()
	}
	s.queue.pushInline(t, pri, s.seq, int32(p.id), -1)
}

// resumeBand draws a resume's perturbation priority. Resumes live in a
// later priority band than deliveries at equal timestamps (see alloc); the
// draw keeps the rng stream aligned with the historical event allocation
// order.
func (s *sim) resumeBand() float64 { return 1 + s.rng.Float64() }

// sample reads a get's cell into its landing record.
func (s *sim) sample(l *landRec) {
	l.val = s.mem.ReadID(l.symID, l.idx)
	l.deposited = true
}

// depositRead dispatches an inline get-read event: sample memory at the
// arrival time, deposit into the landing slot.
func (s *sim) depositRead(p *proc, slot int32, t float64, seq int64) {
	l := &p.lands[slot]
	s.sample(l)
	if s.tap != nil {
		s.tap.MemEffect(int(l.dyn), false, l.val, t)
	}
}

// count charges n dispatched events against the run's budget and reports
// whether the run may go on.
func (s *sim) count(n int) bool {
	s.nEv += n
	if s.nEv > s.opts.MaxEvents {
		s.overBudget()
		return false
	}
	return true
}

func (s *sim) overBudget() {
	s.err = fmt.Errorf("simulation exceeded %d events (livelock?)", s.opts.MaxEvents)
}

// forceReads samples, ahead of the write e, every lazy read keyed before
// it, and makes minArr exact again. A lazy read never enters the event
// queue; its sample is taken here or, failing a write, when its landing is
// applied (applyLands). Until then the cell is untouched since the read's
// arrival — every earlier-keyed write forced a sample before applying —
// so the deferred sample returns exactly the value the queued read would
// have, and it is charged against the event budget just as popping its
// queued entry would have been. forceReads runs only when the write's time
// has reached minArr: the scan visits every processor, and a write
// dispatch that paid for it unconditionally would be quadratic in machine
// size.
func (s *sim) forceReads(e *event) {
	min, n := math.Inf(1), 0
	for _, q := range s.procs {
		if len(q.live) == 0 {
			continue
		}
		for i := range q.lands {
			l := &q.lands[i]
			switch {
			case l.deposited:
			case l.arrBefore(e.t, e.pri, e.seq):
				s.sample(l)
				n++
			case l.arr < min:
				min = l.arr
			}
		}
	}
	s.minArr = min
	s.count(n)
}

// dispatch runs one popped event-store event. Resumes and get-reads never
// arrive here; they are inline queue entries handled by the run loop.
func (s *sim) dispatch(e *event) {
	switch e.kind {
	case evMemWrite:
		if s.onWrite != nil {
			s.onWrite(e)
		}
		if e.t >= s.minArr {
			s.forceReads(e)
		}
		s.mem.WriteID(e.symID, e.idx, e.val)
		if s.tap != nil {
			s.tap.MemEffect(int(e.dyn), true, e.val, e.t)
		}
	case evPost:
		s.postArrive(e)
	case evLockReq:
		s.lockArrive(e)
	case evLockRel:
		s.unlockArrive(e)
	}
}

// applyLands writes every pending get landing whose key precedes the
// resume event's key (those the queue would have dispatched first) into
// the processor's locals, in key order: the due prefix of p.live. Later
// landings stay pending — their gets have not been synced yet.
func (s *sim) applyLands(p *proc, t, pri float64, seq int64) {
	n := 0
	for _, i := range p.live {
		l := &p.lands[i]
		if !l.landBefore(t, pri, seq) {
			break
		}
		s.land(p, l)
		n++
	}
	if n == 0 {
		return
	}
	p.live = p.live[:copy(p.live, p.live[n:])]
	if len(p.live) == 0 {
		p.lands = p.lands[:0]
	}
}

// land applies one due landing: the read's value drops into its
// destination local.
func (s *sim) land(p *proc, l *landRec) {
	if !l.deposited {
		// A lazy read no write has forced: the cell still holds what it
		// held at the read's arrival.
		s.sample(l)
		s.nEv++
	}
	p.env.scalars[l.dst] = l.val
	if l.t > s.last {
		s.last = l.t
	}
	s.nEv++
}

func (s *sim) fail(p *proc, format string, args ...any) {
	if s.err == nil {
		s.err = &RuntimeError{Proc: p.id, Msg: fmt.Sprintf(format, args...)}
	}
}

// wire returns one message's network latency, with optional jitter.
func (s *sim) wire() float64 {
	w := s.cfg.Wire
	if s.opts.Jitter > 0 {
		w *= 1 + s.opts.Jitter*s.rng.Float64()
	}
	return w
}

// deliver computes a message's service time at the destination's network
// interface.
func (s *sim) deliver(sent float64) float64 {
	return sent + s.wire() + s.cfg.RecvOv
}

// resume runs processor p until it blocks or finishes.
func (s *sim) resume(p *proc) {
	s.eng.Resume(p.id)
	if s.eng.Done(p.id) {
		p.done = true
	}
}

// issueGetAt issues a get of access accID whose operands are evaluated
// and bounds-checked (the VM host enters here with the index already
// popped).
func (s *sim) issueGetAt(p *proc, accID int, idx int64, owner int, dst ir.LocalID, ctr target.Ctr) {
	dyn := s.tapIssue(p, OpGet, accID, idx)
	var arrival, completion float64
	if owner == p.id {
		p.charge(s.cfg.LocalCost)
		p.stats.LocalAcc++
		arrival, completion = p.time, p.time
	} else {
		p.charge(s.cfg.SendOv)
		p.stats.Gets++
		s.msgs += 2
		arrival = s.deliver(p.time)
		completion = arrival + s.cfg.SendOv + s.wire()
	}
	s.pend(p, ctr, completion, owner != p.id)
	s.recordCompletion(p, accID, completion)
	// The read samples memory through the queue at the arrival time; the
	// landing goes on the processor's private list, keyed exactly as the
	// queued land event used to be (the next seq number, the read's
	// priority band) so it applies at the same point in the event order.
	// The rng draw mirrors the old land allocation under perturbation,
	// keeping the jitter stream unchanged.
	s.seq++
	readSeq := s.seq
	pri := 0.0
	if s.opts.Perturb {
		pri = s.rng.Float64()
	}
	slot := int32(len(p.lands))
	if s.lazy {
		// No queue entry: the sample is taken at the first later-keyed
		// write dispatch or when the landing is applied (see forceReads);
		// the seq draws stay so every event key matches the queued
		// schedule exactly.
		if arrival < s.minArr {
			s.minArr = arrival
		}
	} else {
		s.queue.pushInline(arrival, pri, readSeq, int32(p.id), slot)
	}
	s.seq++
	if s.opts.Perturb {
		s.rng.Float64()
	}
	// Field-at-a-time stores into the (usually recycled) slot: appending a
	// composite literal copies the full record through a stack temporary.
	if n := len(p.lands); n < cap(p.lands) {
		p.lands = p.lands[:n+1]
	} else {
		p.lands = append(p.lands, landRec{})
	}
	l := &p.lands[slot]
	l.t, l.pri, l.seq, l.arr, l.idx = completion, pri, s.seq, arrival, idx
	l.dst, l.symID, l.dyn = int32(dst), s.accs[accID].symID, int32(dyn)
	l.deposited = false
	l.val = ir.Value{}
	// Index the slot in key order. Its seq is the largest yet, so it goes
	// behind every landing due no later; that is almost always the tail.
	live := append(p.live, slot)
	j := len(live) - 1
	for ; j > 0; j-- {
		b := &p.lands[live[j-1]]
		if !l.landBefore(b.t, b.pri, b.seq) {
			break
		}
		live[j] = live[j-1]
	}
	live[j] = slot
	p.live = live
}

// issuePutAt issues a put whose operands are evaluated and bounds-checked.
func (s *sim) issuePutAt(p *proc, accID int, idx int64, owner int, v ir.Value, ctr target.Ctr) {
	dyn := s.tapIssue(p, OpPut, accID, idx)
	var arrival, completion float64
	if owner == p.id {
		p.charge(s.cfg.LocalCost)
		p.stats.LocalAcc++
		arrival, completion = p.time, p.time
	} else {
		p.charge(s.cfg.SendOv)
		p.stats.Puts++
		s.msgs += 2
		arrival = s.deliver(p.time)
		completion = arrival + s.cfg.SendOv + s.wire()
	}
	s.pend(p, ctr, completion, owner != p.id)
	s.recordCompletion(p, accID, completion)
	w := s.newEvent(arrival, evMemWrite)
	w.symID, w.idx, w.val, w.dyn = s.accs[accID].symID, idx, v, int32(dyn)
}

// issueStoreAt issues a store whose operands are evaluated and
// bounds-checked.
func (s *sim) issueStoreAt(p *proc, accID int, idx int64, owner int, v ir.Value) {
	dyn := s.tapIssue(p, OpStore, accID, idx)
	var arrival float64
	if owner == p.id {
		p.charge(s.cfg.LocalCost)
		p.stats.LocalAcc++
		arrival = p.time
	} else {
		p.charge(s.cfg.SendOv)
		p.stats.Stores++
		s.msgs++
		arrival = s.deliver(p.time)
	}
	if arrival > p.storeMax {
		p.storeMax = arrival
	}
	w := s.newEvent(arrival, evMemWrite)
	w.symID, w.idx, w.val, w.dyn = s.accs[accID].symID, idx, v, int32(dyn)
}

// pend records an outstanding operation on counter ctr, completing at t.
func (s *sim) pend(p *proc, ctr target.Ctr, t float64, ack bool) {
	st := &p.ctrs[ctr]
	st.pending = append(st.pending, pendingOp{t: t, ack: ack})
	if t > st.last {
		st.last = t
	}
}

// syncCtr begins a sync_ctr and yields to the event loop: it schedules p's
// resume at the wake time, the latest completion pending on the counter,
// so every reply landing at or before it is applied first; the run loop
// then finishes the wait (finishSyncCtr) ahead of the resume.
func (s *sim) syncCtr(p *proc, ctr target.Ctr) {
	wake := p.time
	if t := p.ctrs[ctr].last; t > wake {
		wake = t
	}
	p.ctrWait = int32(ctr)
	s.tapIssue(p, OpSyncCtr, -1, int64(ctr))
	// scheduleResume, in line.
	s.seq++
	pri := 0.0
	if s.opts.Perturb {
		pri = s.resumeBand()
	}
	s.queue.pushInline(wake, pri, s.seq, int32(p.id), -1)
}

// finishSyncCtr completes the sync_ctr p yielded at: the clock advances to
// each completion and pays RecvOv per ack. The cost model processes
// replies in arrival order: the handler cost of one ack overlaps the wait
// for later completions, so waiting for several outstanding operations on
// one counter costs the same as draining them through separate counters.
func (s *sim) finishSyncCtr(p *proc) {
	st := &p.ctrs[p.ctrWait]
	p.ctrWait = -1
	// Insertion sort by completion time: pending lists are short (a few
	// outstanding ops per counter) and this avoids sort.Slice's closure.
	ops := st.pending
	for i := 1; i < len(ops); i++ {
		for j := i; j > 0 && ops[j].t < ops[j-1].t; j-- {
			ops[j], ops[j-1] = ops[j-1], ops[j]
		}
	}
	for _, op := range ops {
		if op.t > p.time {
			p.time = op.t
		}
		if op.ack {
			p.charge(s.cfg.RecvOv)
			p.stats.AcksRecv++
		}
	}
	st.pending, st.last = ops[:0], 0
}

// syncOpAt executes post/wait/lock/unlock/barrier with its element index
// evaluated; false means p yielded (or failed) and will execute the same
// operation again when it resumes, the machine replaying the saved index
// rather than re-running the operand code.
func (s *sim) syncOpAt(p *proc, acc *ir.Access, idx int64) bool {
	if !p.waiting {
		s.verifyDelays(p, acc)
	}
	switch acc.Kind {
	case ir.AccBarrier:
		return s.barrier(p, acc)
	case ir.AccPost:
		return s.post(p, acc, idx)
	case ir.AccWait:
		return s.waitEv(p, acc, idx)
	case ir.AccLock:
		return s.lock(p, acc, idx)
	case ir.AccUnlock:
		return s.unlock(p, acc, idx)
	default:
		s.fail(p, "unhandled sync op %s", acc.Kind)
		return false
	}
}

// eventObjAt bounds-checks a pre-evaluated event index.
func (s *sim) eventObjAt(p *proc, acc *ir.Access, idx int64) (*eventObj, bool) {
	arr := s.evs[acc.Sym.ID]
	if idx < 0 || idx >= int64(len(arr)) {
		s.fail(p, "event index %d out of range for %s[%d]", idx, acc.Sym.Name, len(arr))
		return nil, false
	}
	return &arr[idx], true
}

// lockObjAt bounds-checks a pre-evaluated lock index.
func (s *sim) lockObjAt(p *proc, acc *ir.Access, idx int64) (*lockObj, bool) {
	arr := s.lks[acc.Sym.ID]
	if idx < 0 || idx >= int64(len(arr)) {
		s.fail(p, "lock index %d out of range for %s[%d]", idx, acc.Sym.Name, len(arr))
		return nil, false
	}
	return &arr[idx], true
}

func (s *sim) post(p *proc, acc *ir.Access, idx int64) bool {
	if _, ok := s.eventObjAt(p, acc, idx); !ok {
		return false
	}
	dyn := s.tapIssue(p, OpPost, acc.ID, idx)
	p.charge(s.cfg.SendOv)
	p.stats.PostsWaits++
	s.msgs++
	arrival := p.time + s.wire() + s.cfg.RecvOv
	e := s.newEvent(arrival, evPost)
	e.proc, e.symID, e.idx, e.accID, e.dyn = int32(p.id), int32(acc.Sym.ID), idx, int32(acc.ID), int32(dyn)
	return true
}

// postArrive handles a post message reaching the event's manager: flag the
// object and wake any queued waiters.
func (s *sim) postArrive(e *event) {
	ev := &s.evs[e.symID][e.idx]
	if ev.posted {
		acc := s.prog.Fn.Accesses[e.accID]
		s.fail(s.procs[e.proc], "event %s posted twice (MiniSplit events are single-post)", acc.Sym.Name)
		return
	}
	ev.posted = true
	ev.arrival = e.t
	ev.postDyn = int(e.dyn)
	for _, w := range ev.waiters {
		s.msgs++
		s.scheduleResume(e.t+s.wire(), w)
	}
	ev.waiters = ev.waiters[:0]
}

func (s *sim) waitEv(p *proc, acc *ir.Access, idx int64) bool {
	ev, ok := s.eventObjAt(p, acc, idx)
	if !ok {
		return false
	}
	if !p.waiting {
		p.waiting = true
		p.stats.PostsWaits++
		p.pendDyn = s.tapIssue(p, OpWait, acc.ID, idx)
		if ev.posted {
			wake := p.time
			if t := ev.arrival + s.wire(); t > wake {
				wake = t
			}
			s.scheduleResume(wake, p)
		} else {
			ev.waiters = append(ev.waiters, p)
		}
		return false
	}
	p.waiting = false
	if !ev.posted {
		s.fail(p, "woken from wait on unposted event %s", acc.Sym.Name)
		return false
	}
	if s.tap != nil {
		s.tap.Observe(p.pendDyn, ev.postDyn)
	}
	if t := ev.arrival + s.wire(); t > p.time {
		p.time = t
	}
	p.charge(s.cfg.RecvOv)
	return true
}

func (s *sim) lock(p *proc, acc *ir.Access, idx int64) bool {
	if _, ok := s.lockObjAt(p, acc, idx); !ok {
		return false
	}
	if !p.waiting {
		p.waiting = true
		p.stats.LockOps++
		p.pendDyn = s.tapIssue(p, OpLock, acc.ID, idx)
		p.charge(s.cfg.SendOv)
		s.msgs++
		reqArrival := p.time + s.wire() + s.cfg.RecvOv
		e := s.newEvent(reqArrival, evLockReq)
		e.proc, e.symID, e.idx, e.dyn = int32(p.id), int32(acc.Sym.ID), idx, int32(p.pendDyn)
		return false
	}
	p.waiting = false
	if p.wakeTime > p.time {
		p.time = p.wakeTime
	}
	p.charge(s.cfg.RecvOv)
	return true
}

func (s *sim) unlock(p *proc, acc *ir.Access, idx int64) bool {
	if _, ok := s.lockObjAt(p, acc, idx); !ok {
		return false
	}
	dyn := s.tapIssue(p, OpUnlock, acc.ID, idx)
	p.charge(s.cfg.SendOv)
	p.stats.LockOps++
	s.msgs++
	relArrival := p.time + s.wire() + s.cfg.RecvOv
	e := s.newEvent(relArrival, evLockRel)
	e.proc, e.symID, e.idx, e.dyn = int32(p.id), int32(acc.Sym.ID), idx, int32(dyn)
	return true
}

// lockArrive handles a lock request reaching the lock's manager: grant
// immediately when free, queue otherwise.
func (s *sim) lockArrive(e *event) {
	lk, p := &s.lks[e.symID][e.idx], s.procs[e.proc]
	if !lk.held {
		lk.held = true
		if s.tap != nil {
			s.tap.Observe(int(e.dyn), lk.lastRel)
		}
		grant := e.t
		if lk.free > grant {
			grant = lk.free
		}
		s.msgs++
		p.wakeTime = grant + s.wire()
		s.scheduleResume(p.wakeTime, p)
	} else {
		lk.queue = append(lk.queue, lockWaiter{p: p, dyn: int(e.dyn)})
	}
}

// unlockArrive handles a release reaching the manager: hand off to the
// next queued requester or mark the lock free.
func (s *sim) unlockArrive(e *event) {
	lk := &s.lks[e.symID][e.idx]
	if !lk.held {
		s.fail(s.procs[e.proc], "unlock of a lock that is not held")
		return
	}
	lk.lastRel = int(e.dyn)
	if len(lk.queue) > 0 {
		next := lk.queue[0]
		lk.queue = lk.queue[1:]
		if s.tap != nil {
			s.tap.Observe(next.dyn, int(e.dyn))
		}
		s.msgs++
		next.p.wakeTime = e.t + s.wire()
		s.scheduleResume(next.p.wakeTime, next.p)
	} else {
		lk.held = false
		lk.free = e.t
	}
}

func (s *sim) barrier(p *proc, acc *ir.Access) bool {
	if !p.waiting {
		p.waiting = true
		p.stats.Barriers++
		p.barEp = s.barEp
		if dyn := s.tapIssue(p, OpBarrierArrive, acc.ID, 0); dyn >= 0 {
			s.tap.Episode(dyn, p.barEp)
		}
		arrive := p.time + s.cfg.SendOv
		if s.bar.accID == -1 {
			s.bar.accID = acc.ID
		} else if s.bar.accID != acc.ID {
			// The runtime alignment check of section 5.2: processors must
			// reach the same barrier statement.
			s.fail(p, "barrier misalignment: a%d vs a%d", acc.ID, s.bar.accID)
			return false
		}
		if s.bar.arrived[p.id] >= 0 {
			s.fail(p, "proc re-entered an open barrier episode")
			return false
		}
		// A barrier drains this processor's outstanding one-way stores.
		if p.storeMax > arrive {
			arrive = p.storeMax
		}
		s.bar.arrived[p.id] = arrive
		s.bar.n++
		if s.bar.n == s.cfg.Procs {
			release := 0.0
			for _, t := range s.bar.arrived {
				if t > release {
					release = t
				}
			}
			release += s.cfg.BarrierCost
			s.bar.release = release
			for i := range s.bar.arrived {
				s.bar.arrived[i] = -1
			}
			s.bar.n = 0
			s.bar.accID = -1
			s.barEp++
			for _, w := range s.procs {
				w.wakeTime = release
				s.scheduleResume(release, w)
			}
		}
		return false
	}
	p.waiting = false
	if p.wakeTime > p.time {
		p.time = p.wakeTime
	}
	if dyn := s.tapIssue(p, OpBarrierRelease, acc.ID, 0); dyn >= 0 {
		s.tap.Episode(dyn, p.barEp)
	}
	p.charge(s.cfg.RecvOv)
	return true
}

// recordCompletion notes an access's computed completion time for the
// delay verifier.
func (s *sim) recordCompletion(p *proc, accID int, completion float64) {
	if p.lastCompletion == nil {
		return
	}
	if completion > p.lastCompletion[accID] {
		p.lastCompletion[accID] = completion
	}
}

// verifyDelays asserts that every delay-predecessor get/put of access b
// has completed before b initiates on this processor.
func (s *sim) verifyDelays(p *proc, b *ir.Access) {
	if s.delayPreds == nil || b.ID >= len(s.delayPreds) {
		return
	}
	const eps = 1e-6
	for _, a := range s.delayPreds[b.ID] {
		if p.lastCompletion[a] > p.time+eps {
			s.fail(p, "delay violation: %s initiated at %.2f before %s completed at %.2f",
				b, p.time, s.prog.Fn.Accesses[a], p.lastCompletion[a])
			return
		}
	}
}

// failIndex reports access accID's out-of-range element index.
func (s *sim) failIndex(p *proc, accID int, idx int64) {
	s.fail(p, "%v", s.mem.CheckIndex(s.prog.Fn.Accesses[accID].Sym, idx))
}
