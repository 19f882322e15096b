// Package pass re-expresses the splitc compiler as an instrumented pipeline
// of named passes over a shared Context. Each pass is small and observable:
// the pipeline times every pass, can attribute heap allocations to it,
// collects pass-specific counters, and calls an observer hook after each
// pass so drivers can dump intermediate state (pscc -dump-after).
//
// The canonical pipeline mirrors the paper's structure:
//
//	parse -> check -> build-ir ->
//	conflict -> cycle-detect -> sync-analysis ->        (sections 3-5)
//	split-phase -> [cse -> licm -> global-reuse] ->     (section 7)
//	[hoist] -> sync-motion -> [one-way] ->              (section 6)
//	counter-alloc -> insert-syncs
//
// Plan builds that sequence from a Config, and nothing else orders passes:
// the paper's guarantee holds for section 6's steps in section 6's order
// (one-way conversion reads the sync positions motion placed), so there is
// no way to name a subset or a permutation. This package lists the passes
// through split-phase; the steps after it, and the codegen.Options fields
// that enable them, are codegen's step table, one pass per step.
package pass

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/codegen"
	"repro/internal/delay"
	"repro/internal/diag"
	"repro/internal/ir"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/syncanal"
	"repro/internal/target"
)

// Pass is one named pipeline stage.
type Pass interface {
	// Name is the pass's stable name (e.g. "sync-analysis").
	Name() string
	// Run advances the Context. A non-nil error aborts the pipeline; the
	// pass must also record it in ctx.Diags (use ctx.Errorf).
	Run(ctx *Context) error
}

// DelaySource selects which delay set split-phase code generation enforces.
type DelaySource int

// Delay sources.
const (
	// DelayFinal uses the fully refined delay set D (sections 4-5).
	DelayFinal DelaySource = iota
	// DelayBaseline uses the Shasha & Snir cycle-detection set, ignoring
	// the synchronization refinement (the paper's unoptimized compiler).
	DelayBaseline
	// DelayNone uses an empty delay set: no SC enforcement at all. Only
	// the dynamic verifier's negative tests compile this way.
	DelayNone
)

// Config selects what the planned pipeline does. splitc translates its
// public Level and CSE knobs into a Config; the pass layer itself has no
// notion of levels.
type Config struct {
	// Procs is the compile-time machine size (required, positive).
	Procs int
	// Exact uses the exponential simple-path search in cycle detection.
	Exact bool
	// Delays picks the delay set split-phase generation enforces.
	Delays DelaySource
	// Codegen selects the code-generation steps and how they run.
	Codegen codegen.Options
}

// Context is the state shared by the passes of one compilation. Front-end
// passes fill the fields top to bottom; later passes read the earlier
// fields, which Plan's ordering guarantees are set.
type Context struct {
	// Source is the MiniSplit program text (input).
	Source string
	// Config selects the pipeline behavior (input).
	Config Config
	// Ctx carries the compilation's cancellation/deadline signal (input;
	// nil means Background). The pipeline checks it at every pass
	// boundary, so a canceled compile stops within one pass of the
	// signal — the granularity servers need to shed timed-out requests
	// without threading a context through every analysis loop.
	Ctx context.Context

	// AST is set by "parse".
	AST *source.Program
	// Info is set by "check".
	Info *sem.Info
	// Fn is set by "build-ir".
	Fn *ir.Fn
	// Analysis is created by "conflict" and refined in place by
	// "cycle-detect" and "sync-analysis".
	Analysis *syncanal.Result
	// Delays is the delay set chosen by "split-phase" per Config.Delays.
	Delays *delay.Set
	// Gen is the stepwise code generator, created (the program lowered) by
	// "split-phase" and advanced by the passes of codegen's steps.
	Gen *codegen.Generator

	// Diags accumulates structured diagnostics across the run.
	Diags diag.Bag

	counters map[string]int
}

// NewContext prepares a Context for one compilation of src.
func NewContext(src string, cfg Config) *Context {
	return &Context{Source: src, Config: cfg}
}

// Count adds v to the named pass-specific counter of the currently running
// pass. Counters reset between passes; the pipeline snapshots them into the
// pass's Stat.
func (ctx *Context) Count(name string, v int) {
	if v == 0 {
		return
	}
	if ctx.counters == nil {
		ctx.counters = make(map[string]int)
	}
	ctx.counters[name] += v
}

// Errorf records a structured error-severity diagnostic attributed to pass
// and returns it as the error the pass should propagate.
func (ctx *Context) Errorf(pass string, pos source.Pos, format string, args ...any) error {
	return ctx.Diags.Errorf(pass, pos, format, args...)
}

// Prog returns the target program under construction (nil before
// split-phase has run).
func (ctx *Context) Prog() *target.Prog {
	if ctx.Gen == nil {
		return nil
	}
	return ctx.Gen.Prog()
}

// CodegenStats returns the optimizer statistics accumulated so far (zero
// before split-phase has run).
func (ctx *Context) CodegenStats() codegen.Stats {
	if ctx.Gen == nil {
		return codegen.Stats{}
	}
	return ctx.Gen.Stats()
}

// Stat is the measured record of one executed pass.
type Stat struct {
	// Name is the pass's name.
	Name string
	// Wall is the pass's elapsed wall time.
	Wall time.Duration
	// Allocs is the number of heap objects the pass allocated, measured
	// only when Pipeline.MeasureAllocs is set (0 otherwise). The figure is
	// process-wide, so run single-threaded drivers for clean numbers.
	Allocs uint64
	// Counters holds the pass's non-zero named counters (what it did:
	// delays found, gets eliminated, syncs placed, ...).
	Counters map[string]int
}

// CounterNames returns the counter keys in sorted order, for stable output.
func (s *Stat) CounterNames() []string {
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Pipeline is the instrumentation a pass sequence runs under.
type Pipeline struct {
	// MeasureAllocs attributes heap allocations to each pass via
	// runtime.ReadMemStats. It costs two stop-the-world reads per pass, so
	// bulk drivers (bench and verification grids) leave it off.
	MeasureAllocs bool
	// Observer, when set, runs after each successful pass — the hook
	// behind pscc's -dump-after.
	Observer func(p Pass, ctx *Context)
}

// Run executes passes in order under pl's instrumentation; a nil pl runs
// them with none beyond the always-on timing and counters. It returns the
// per-pass stats for every pass that ran (including a failing one) and the
// first error, which is also recorded in ctx.Diags.
func (pl *Pipeline) Run(ctx *Context, passes []Pass) ([]Stat, error) {
	if pl == nil {
		pl = &Pipeline{}
	}
	stats := make([]Stat, 0, len(passes))
	var m0, m1 runtime.MemStats
	for _, p := range passes {
		if c := ctx.Ctx; c != nil {
			if cerr := c.Err(); cerr != nil {
				ctx.Errorf(p.Name(), source.Pos{}, "compilation aborted: %v", cerr)
				// Wrap the context cause so callers can errors.Is on
				// DeadlineExceeded/Canceled; the diag above keeps the
				// pass attribution.
				return stats, fmt.Errorf("compilation aborted before %s: %w", p.Name(), cerr)
			}
		}
		ctx.counters = nil
		if pl.MeasureAllocs {
			runtime.ReadMemStats(&m0)
		}
		start := time.Now()
		err := p.Run(ctx)
		wall := time.Since(start)
		st := Stat{Name: p.Name(), Wall: wall, Counters: ctx.counters}
		if pl.MeasureAllocs {
			runtime.ReadMemStats(&m1)
			st.Allocs = m1.Mallocs - m0.Mallocs
		}
		stats = append(stats, st)
		if err != nil {
			return stats, err
		}
		if pl.Observer != nil {
			pl.Observer(p, ctx)
		}
	}
	return stats, nil
}
