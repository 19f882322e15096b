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
	"strings"

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
	// Engine selects the executor's block-execution engine for this
	// schedule's run; the zero value is the bytecode VM. Verify stamps
	// every schedule with Options.Engine.
	Engine interp.Engine
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
	runner, err := interp.NewRunner(prog, cfg)
	if err != nil {
		return nil, nil, err
	}
	return new(arena).runOne(runner, sch)
}

// arena is the trace-side state Verify reuses across the runs of one
// verdict: the collector's trace buffers and the checker's graph.
type arena struct {
	col Collector
	chk checker
}

// runOne is RunOne on a runner and an arena that earlier runs have used.
func (a *arena) runOne(runner *interp.Runner, sch Schedule) (*interp.Result, *Violation, error) {
	a.col.Reset()
	res, err := runner.Run(interp.RunOptions{
		Seed:    sch.Seed,
		Jitter:  sch.Jitter,
		Perturb: sch.Perturb,
		Tap:     &a.col,
		Engine:  sch.Engine,
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
	// (the apps' sequential oracles).
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
	// Engine selects the block-execution engine for every verified run
	// (and the blocking reference). The zero value is the bytecode VM;
	// EngineWalker rechecks the same schedules under the AST walker.
	Engine interp.Engine
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
// checked at every pass boundary of the compiles (so between levels too)
// and before every run, so a canceled verdict returns within one pass or
// one run of the signal, with an error wrapping ctx.Err(). (The SC outcome
// enumeration of a racy program is bounded by EnumBudget, not by ctx.)
//
// A verdict does each piece of work once: one front half and one analysis
// for the source (splitc.Front), from which every level (and a
// deterministic program's blocking reference) is generated; one simulator state per generated program
// (interp.Runner); and one trace collector and happens-before graph, reset
// between runs.
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
	report := &Report{ExactOracle: true}

	// The reference semantics: the unweakened blocking compile's run for a
	// deterministic program, the IR's SC outcome set for a racy one.
	var refKey string
	var scOutcomes map[string]bool
	if opts.Deterministic {
		ref, err := front.Generate(ctx, splitc.Options{Procs: opts.Procs, Level: splitc.LevelBlocking}, nil)
		if err != nil {
			return nil, err
		}
		res, err := ref.Run(cfg, interp.RunOptions{Engine: opts.Engine})
		if err != nil {
			return nil, fmt.Errorf("scverify: blocking reference run: %w", err)
		}
		refKey = outcomeKey(res.Memory, res.Prints)
	} else {
		var stats interp.EnumStats
		scOutcomes, stats, report.ExactOracle = interp.EnumerateSCStats(front.Fn, opts.Procs, opts.EnumBudget)
		report.Enum = &stats
	}

	var a arena
	for _, level := range opts.Levels {
		prog, err := front.Generate(ctx, splitc.Options{
			Procs:  opts.Procs,
			Level:  level,
			CSE:    opts.CSE,
			Weaken: opts.Weaken,
		}, nil)
		if err != nil {
			return nil, err
		}
		runner, err := interp.NewRunner(prog.Target, cfg)
		if err != nil {
			return nil, err
		}
		lr := &LevelReport{Level: level, DelayPairs: prog.Analysis.D.Size() - len(opts.Weaken)}
		for _, sch := range opts.Schedules {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("scverify: aborted at %s %v: %w", level, sch, err)
			}
			sch.Engine = opts.Engine
			res, viol, err := a.runOne(runner, sch)
			if err != nil {
				return nil, fmt.Errorf("scverify: %s %v: %w", level, sch, err)
			}
			lr.Runs++
			if viol != nil {
				lr.Violations = append(lr.Violations, viol)
			}
			key := outcomeKey(res.Memory, res.Prints)
			switch {
			case opts.Deterministic:
				if key != refKey {
					lr.OutcomeErrs = append(lr.OutcomeErrs, fmt.Errorf(
						"%s %v: final state differs from blocking reference", level, sch))
				}
				if opts.Validate != nil {
					if err := opts.Validate(res.Memory); err != nil {
						lr.OutcomeErrs = append(lr.OutcomeErrs, fmt.Errorf("%s %v: %w", level, sch, err))
					}
				}
			case report.ExactOracle:
				if !scOutcomes[key] {
					lr.OutcomeErrs = append(lr.OutcomeErrs, fmt.Errorf(
						"%s %v: final state unreachable by any SC interleaving", level, sch))
				}
			}
		}
		report.Levels = append(report.Levels, lr)
	}
	return report, nil
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
