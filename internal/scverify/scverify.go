// Package scverify is a dynamic sequential-consistency verifier for the
// optimized split-phase programs the compiler emits (DESIGN.md §9).
//
// The paper's contract is that enforcing only the delay set keeps every
// weakly-ordered execution sequentially consistent. This package checks
// that contract on real (simulated) executions instead of trusting the
// analysis: it taps the simulator (interp.Tap) to record a happens-before
// trace — per-processor program order, the memory system's application
// order of conflicting accesses, synchronization observations, and
// barrier episodes — across a grid of seeded schedules (latency jitter
// plus legal event-order perturbation), and then checks that
//
//	a. the recorded orderings embed into a single total order consistent
//	   with program order (the happens-before graph is acyclic), and
//	b. the run's outcome is one a sequentially consistent execution could
//	   produce: equal to the blocking reference for deterministic
//	   programs, or a member of the exhaustive SC outcome set for racy
//	   generated ones.
//
// A compiler that weakens an enforced delay (codegen.Options.Weaken) is
// caught by (a): the dropped completion-before-initiation chain lets the
// memory system apply conflicting accesses against program order, closing
// a cycle the checker reports with full provenance.
package scverify

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"

	splitc "repro"
	"repro/internal/delay"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/target"
)

// Schedule identifies one simulated execution schedule: the jitter seed
// and amplitude plus whether same-instant events are perturbed.
type Schedule struct {
	Seed    int64
	Jitter  float64
	Perturb bool
}

// String renders the schedule compactly, e.g. "seed=3 jitter=0.45 perturb".
func (s Schedule) String() string {
	out := fmt.Sprintf("seed=%d jitter=%g", s.Seed, s.Jitter)
	if s.Perturb {
		out += " perturb"
	}
	return out
}

// Schedules returns a deterministic grid of n schedules: the fully
// deterministic schedule first, then perturbed schedules cycling through
// jitter amplitudes with distinct seeds. The ladder tops out well above
// the hardware-calibrated jitter: a message may legally take arbitrarily
// long (a congested network), and large amplitudes are what let late
// messages overtake early ones, putting genuinely reordered executions in
// front of the checker. Correct programs stay SC under any latency, so
// the wide amplitudes cannot cause false positives.
func Schedules(n int) []Schedule {
	if n <= 0 {
		return nil
	}
	out := []Schedule{{}}
	amps := []float64{0, 0.3, 0.45, 1.0, 2.5, 8.0}
	for seed := int64(1); len(out) < n; seed++ {
		out = append(out, Schedule{Seed: seed, Jitter: amps[int(seed)%len(amps)], Perturb: true})
	}
	return out
}

// RunOne executes prog on the machine under one schedule with a trace
// collector attached and SC-checks the trace. It returns the run result,
// the violation if the trace is not SC-embeddable (nil otherwise), and
// any simulation error.
func RunOne(prog *target.Prog, cfg machine.Config, sch Schedule) (*interp.Result, *Violation, error) {
	a := arenas.Get().(*arena)
	defer arenas.Put(a)
	return a.runOne(sch, func(opts interp.RunOptions) (*interp.Result, error) {
		return interp.Run(prog, cfg, opts)
	})
}

// arena is the trace-side state reused from run to run: the collector's
// trace buffers and the checker's graph.
type arena struct {
	col Collector
	chk checker
}

// arenas keeps arenas across verdicts, so a verdict's first trace lands in
// buffers an earlier one grew instead of growing them from nil. An arena
// is held by one goroutine from Get to Put, and nothing a run hands out —
// Result, Violation — refers to it; a run starts by resetting all of it, so
// one put back by an error or a panic midway is as good as any. A pooled
// arena's spare capacity still points at the symbols and values of the last
// program traced in it, until the next run overwrites them or the garbage
// collector empties the pool.
var arenas = sync.Pool{New: func() any { return new(arena) }}

// runOne is RunOne on an arena that earlier runs have used, making the run
// with run.
func (a *arena) runOne(sch Schedule, run func(interp.RunOptions) (*interp.Result, error)) (*interp.Result, *Violation, error) {
	a.col.Reset()
	res, err := run(interp.RunOptions{
		Seed:    sch.Seed,
		Jitter:  sch.Jitter,
		Perturb: sch.Perturb,
		Tap:     &a.col,
	})
	if err != nil {
		return nil, nil, err
	}
	v := a.chk.check(a.col.Trace())
	if v != nil {
		v.Schedule = sch
	}
	return res, v, nil
}

// Options configures Verify.
type Options struct {
	// Procs is the machine size (required).
	Procs int
	// Levels are the optimization levels to verify. Default: blocking,
	// pipelined, one-way.
	Levels []splitc.Level
	// Machine is the simulated machine; its Procs must equal Procs.
	// Zero value: CM5(Procs).
	Machine machine.Config
	// Schedules is the schedule grid. Default: Schedules(6).
	Schedules []Schedule
	// Deterministic asserts the program computes one answer regardless of
	// schedule (the apps): every run's final memory and prints must equal
	// the blocking reference's. When false the program may be racy and
	// outcomes are instead checked for membership in the exhaustive SC
	// outcome set (skipped if enumeration exceeds EnumBudget states).
	Deterministic bool
	// Validate, if non-nil, additionally checks each run's final memory
	// (the apps' sequential oracles). The levels of a verdict call it from
	// several goroutines at once: it must not share unsynchronised state
	// between calls.
	Validate func(mem map[string][]ir.Value) error
	// Weaken passes delay pairs for codegen to ignore — the seeded-
	// violation mode used by the negative tests and the pscverify CLI.
	Weaken []delay.Pair
	// CSE enables communication elimination in the compiles under test.
	CSE bool
	// EnumBudget bounds the SC state enumeration for racy programs
	// (default 1_000_000 states; the partial-order-reduced checker makes
	// this cheap).
	EnumBudget int
}

// LevelReport is the verification outcome for one optimization level.
type LevelReport struct {
	Level      splitc.Level
	Runs       int
	Violations []*Violation
	// OutcomeErrs are runs whose final state no SC execution explains
	// (or that failed the validator / blocking-reference comparison).
	OutcomeErrs []error
	// DelayPairs is the level's enforced delay-set size, for reporting.
	DelayPairs int
}

// Report is the outcome of one Verify call.
type Report struct {
	Levels []*LevelReport
	// ExactOracle reports whether racy-outcome checks used the exhaustive
	// SC enumeration (false: enumeration blew the budget and outcome
	// membership was skipped; trace acyclicity is still checked).
	ExactOracle bool
	// Enum holds the model checker's exploration statistics when the
	// exact oracle ran (nil for deterministic programs, whose outcome
	// check is blocking-reference equality).
	Enum *interp.EnumStats
}

// OK reports whether no violation and no outcome error was found.
func (r *Report) OK() bool {
	for _, lr := range r.Levels {
		if len(lr.Violations) > 0 || len(lr.OutcomeErrs) > 0 {
			return false
		}
	}
	return true
}

// Runs totals the executions checked.
func (r *Report) Runs() int {
	n := 0
	for _, lr := range r.Levels {
		n += lr.Runs
	}
	return n
}

// Summary renders a one-line-per-level digest.
func (r *Report) Summary() string {
	var sb strings.Builder
	for _, lr := range r.Levels {
		fmt.Fprintf(&sb, "%-10s runs=%d delays=%d violations=%d outcome-errors=%d\n",
			lr.Level, lr.Runs, lr.DelayPairs, len(lr.Violations), len(lr.OutcomeErrs))
	}
	return sb.String()
}

// outcomeKey delegates to the interpreter's canonical outcome rendering
// (length-prefixed print segments), so weak-run outcomes and the SC
// enumerator's sets compare in one format.
func outcomeKey(mem map[string][]ir.Value, prints []string) string {
	return interp.OutcomeKey(mem, prints)
}

// Verify compiles src at each requested level and checks every schedule:
// trace SC-embeddability always, plus the outcome check the program
// admits (blocking-reference equality for deterministic programs, SC
// outcome-set membership for racy ones).
func Verify(src string, opts Options) (*Report, error) {
	return VerifyContext(context.Background(), src, opts)
}

// VerifyContext is Verify under a cancellation/deadline context. ctx is
// checked at every pass boundary of the compiles, before every run, and
// every 1024 states of a racy program's SC enumeration, so a canceled
// verdict returns within one pass, one run or 1024 states of the signal,
// with an error wrapping ctx.Err().
//
// A verdict does each piece of work once: one front half and one analysis
// for the source (splitc.Front), from which every level (and a
// deterministic program's blocking reference) is generated; one simulator
// state per generated program (interp.Runner); and per level one pooled
// trace arena, reset between runs.
//
// The reference and the levels run side by side, one goroutine apiece —
// len(Levels)+1 of them, so the request itself bounds the width. Each owns
// everything it mutates (its generated program, Runner and arena) and only
// reads the front, and a run is a pure function of (program, machine,
// schedule), so the Report does not depend on how the goroutines
// interleave: it is assembled in Levels order once all have finished, the
// first error in reference-then-Levels order is the one returned (the
// others still run to their own end), and a panic on one of the goroutines
// is raised again on the caller's, with the stack it came from.
func VerifyContext(ctx context.Context, src string, opts Options) (*Report, error) {
	if opts.Procs <= 0 {
		return nil, fmt.Errorf("scverify: Options.Procs must be positive")
	}
	if opts.Levels == nil {
		opts.Levels = []splitc.Level{splitc.LevelBlocking, splitc.LevelPipelined, splitc.LevelOneWay}
	}
	if opts.Schedules == nil {
		opts.Schedules = Schedules(6)
	}
	cfg := opts.Machine
	if cfg.Procs == 0 {
		cfg = machine.CM5(opts.Procs)
	}
	if cfg.Procs != opts.Procs {
		return nil, fmt.Errorf("scverify: machine has %d procs, Options.Procs is %d", cfg.Procs, opts.Procs)
	}
	if opts.EnumBudget <= 0 {
		opts.EnumBudget = 1_000_000
	}

	front, err := splitc.NewFront(ctx, src, splitc.Options{Procs: opts.Procs}, nil)
	if err != nil {
		return nil, err
	}

	// Slot 0 is the reference, slot i+1 is Levels[i].
	errs := make([]error, 1+len(opts.Levels))
	panics := make([]*relayedPanic, len(errs))
	var wg sync.WaitGroup
	spawn := func(slot int, part func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					panics[slot] = &relayedPanic{value: v, stack: debug.Stack()}
				}
			}()
			errs[slot] = part()
		}()
	}
	var ref reference
	spawn(0, func() (err error) {
		ref, err = newReference(ctx, front, cfg, &opts)
		return err
	})
	levels := make([]levelRuns, len(opts.Levels))
	for i, level := range opts.Levels {
		spawn(i+1, func() (err error) {
			levels[i], err = runLevel(ctx, front, cfg, &opts, level)
			return err
		})
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	report := &Report{ExactOracle: ref.exact, Enum: ref.enum}
	for i := range levels {
		lr := levels[i].report
		for j, out := range levels[i].outcomes {
			sch := opts.Schedules[j]
			switch {
			case opts.Deterministic:
				if out.key != ref.key {
					lr.OutcomeErrs = append(lr.OutcomeErrs, fmt.Errorf(
						"%s %v: final state differs from blocking reference", lr.Level, sch))
				}
				if out.invalid != nil {
					lr.OutcomeErrs = append(lr.OutcomeErrs, fmt.Errorf("%s %v: %w", lr.Level, sch, out.invalid))
				}
			case ref.exact:
				if !ref.outcomes[out.key] {
					lr.OutcomeErrs = append(lr.OutcomeErrs, fmt.Errorf(
						"%s %v: final state unreachable by any SC interleaving", lr.Level, sch))
				}
			}
		}
		report.Levels = append(report.Levels, lr)
	}
	return report, nil
}

// relayedPanic is the value VerifyContext panics with when one of its
// goroutines panicked: what that goroutine panicked with and its stack at
// the time, which the caller's own stack no longer shows.
type relayedPanic struct {
	value any
	stack []byte
}

func (p *relayedPanic) Error() string {
	return fmt.Sprintf("%v\n\ngoroutine of the verdict that panicked:\n%s", p.value, p.stack)
}

// reference is the semantics a run's outcome is held to: the unweakened
// blocking compile's run for a deterministic program, the IR's SC outcome
// set for a racy one.
type reference struct {
	key      string          // deterministic: the blocking run's outcome
	outcomes map[string]bool // racy: every SC outcome, when exact
	exact    bool            // false: the enumeration outran EnumBudget
	enum     *interp.EnumStats
}

func newReference(ctx context.Context, front *splitc.Front, cfg machine.Config, opts *Options) (reference, error) {
	if !opts.Deterministic {
		outcomes, stats, exact, err := interp.EnumerateSCContext(ctx, front.Fn, opts.Procs, opts.EnumBudget)
		if err != nil {
			return reference{}, fmt.Errorf("scverify: %w", err)
		}
		return reference{outcomes: outcomes, exact: exact, enum: &stats}, nil
	}
	prog, err := front.Generate(ctx, splitc.Options{Procs: opts.Procs, Level: splitc.LevelBlocking}, nil)
	if err != nil {
		return reference{}, err
	}
	res, err := prog.Run(cfg, interp.RunOptions{})
	if err != nil {
		return reference{}, fmt.Errorf("scverify: blocking reference run: %w", err)
	}
	return reference{key: outcomeKey(res.Memory, res.Prints), exact: true}, nil
}

// levelRuns is one level's share of a verdict: its report but for the
// outcome errors, and what the merge needs to fill those in.
type levelRuns struct {
	report   *LevelReport
	outcomes []runOutcome // per run, in Schedules order
}

type runOutcome struct {
	key     string // outcomeKey of the run's final state
	invalid error  // what Options.Validate made of it
}

// runLevel generates the program at level and makes and checks its run
// under every schedule.
func runLevel(ctx context.Context, front *splitc.Front, cfg machine.Config, opts *Options, level splitc.Level) (levelRuns, error) {
	prog, err := front.Generate(ctx, splitc.Options{
		Procs:  opts.Procs,
		Level:  level,
		CSE:    opts.CSE,
		Weaken: opts.Weaken,
	}, nil)
	if err != nil {
		return levelRuns{}, err
	}
	runner, err := interp.NewRunner(prog.Target, cfg)
	if err != nil {
		return levelRuns{}, err
	}
	a := arenas.Get().(*arena)
	defer arenas.Put(a)
	lr := &LevelReport{Level: level, DelayPairs: prog.Analysis.D.Size() - len(opts.Weaken)}
	outcomes := make([]runOutcome, 0, len(opts.Schedules))
	for _, sch := range opts.Schedules {
		if err := ctx.Err(); err != nil {
			return levelRuns{}, fmt.Errorf("scverify: aborted at %s %v: %w", level, sch, err)
		}
		res, viol, err := a.runOne(sch, runner.Run)
		if err != nil {
			return levelRuns{}, fmt.Errorf("scverify: %s %v: %w", level, sch, err)
		}
		lr.Runs++
		if viol != nil {
			lr.Violations = append(lr.Violations, viol)
		}
		out := runOutcome{key: outcomeKey(res.Memory, res.Prints)}
		// The keys are kept until the merge, and a 64-processor kernel's is
		// 90 kB: runs that end like the one before them — every run of a
		// deterministic program — share its string.
		if n := len(outcomes); n > 0 && outcomes[n-1].key == out.key {
			out.key = outcomes[n-1].key
		}
		if opts.Deterministic && opts.Validate != nil {
			out.invalid = opts.Validate(res.Memory)
		}
		outcomes = append(outcomes, out)
	}
	return levelRuns{report: lr, outcomes: outcomes}, nil
}

// EffectiveWeakenings returns the delay pairs of the front's analysis whose
// individual removal changes the emitted code at the given level — the
// weakenings that can possibly matter dynamically. Pairs whose removal
// compiles to identical target code are filtered out. The front half is
// shared: one code generation for the unweakened program and one per pair.
func EffectiveWeakenings(ctx context.Context, front *splitc.Front, level splitc.Level) ([]delay.Pair, error) {
	opts := splitc.Options{Procs: front.Procs, Exact: front.Exact, Level: level}
	base, err := front.Generate(ctx, opts, nil)
	if err != nil {
		return nil, err
	}
	baseText := base.TargetText()
	var out []delay.Pair
	for _, p := range front.Analysis.D.Pairs() {
		opts.Weaken = []delay.Pair{p}
		weak, err := front.Generate(ctx, opts, nil)
		if err != nil {
			return nil, err
		}
		if weak.TargetText() != baseText {
			out = append(out, p)
		}
	}
	return out, nil
}
