// Package splitc is a compiler and simulator for MiniSplit, an explicitly
// parallel SPMD language with a global address space, reproducing the
// analyses and optimizations of Krishnamurthy & Yelick, "Optimizing
// Parallel Programs with Explicit Synchronization" (PLDI 1995).
//
// The pipeline is: parse -> type check -> build IR (inlining, explicit
// shared accesses) -> conflict set -> cycle detection (Shasha & Snir delay
// sets) -> synchronization analysis (post/wait, barriers, locks) -> split
// phase code generation (message pipelining, one-way communication,
// communication elimination) -> execution on a simulated distributed-memory
// machine (CM-5, T3D, DASH cost models) under genuinely weak memory
// ordering.
//
// Quick start:
//
//	prog, err := splitc.Compile(src, splitc.Options{Procs: 8, Level: splitc.LevelOneWay})
//	res, err := prog.Run(machine.CM5(8), interp.RunOptions{})
//	fmt.Println(res.Time, res.Prints)
package splitc

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/codegen"
	"repro/internal/delay"
	"repro/internal/diag"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/pass"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/syncanal"
	"repro/internal/target"
)

// Level selects the optimization level, mirroring the three bars of the
// paper's Figure 12 plus two reference points.
type Level int

// Optimization levels.
const (
	// LevelBlocking pins every sync_ctr next to its initiation: fully
	// blocking shared accesses (a reference point below the paper's base).
	LevelBlocking Level = iota
	// LevelBaseline applies Shasha & Snir cycle detection only — the
	// paper's "unoptimized" compiler, against which Figure 12 normalizes.
	LevelBaseline
	// LevelPipelined adds the synchronization analysis of section 5 and
	// message pipelining (split-phase accesses, sync motion).
	LevelPipelined
	// LevelOneWay further converts barrier-synchronized puts to one-way
	// stores (Figure 12's third bar).
	LevelOneWay
	// LevelUnsafe compiles with an empty delay set (no SC enforcement).
	// It exists to demonstrate violations; never use it for real runs.
	LevelUnsafe
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelBlocking:
		return "blocking"
	case LevelBaseline:
		return "baseline"
	case LevelPipelined:
		return "pipelined"
	case LevelOneWay:
		return "oneway"
	case LevelUnsafe:
		return "unsafe"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Levels lists every optimization level in ascending order.
func Levels() []Level {
	return []Level{LevelBlocking, LevelBaseline, LevelPipelined, LevelOneWay, LevelUnsafe}
}

// ParseLevel resolves a level name ("blocking", "baseline", "pipelined",
// "oneway", "unsafe") as printed by Level.String. All the command-line
// drivers share this parser.
func ParseLevel(name string) (Level, error) {
	for _, l := range Levels() {
		if name == l.String() {
			return l, nil
		}
	}
	return 0, fmt.Errorf("unknown level %q", name)
}

// ParseLevels resolves a comma-separated level list. The empty string and
// "all" mean nil, which drivers interpret as their own default grid.
func ParseLevels(spec string) ([]Level, error) {
	if spec == "" || spec == "all" {
		return nil, nil
	}
	var out []Level
	for _, name := range strings.Split(spec, ",") {
		l, err := ParseLevel(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, l)
	}
	return out, nil
}

// Options configures compilation.
type Options struct {
	// Procs fixes the machine size at compile time (required; the
	// analyses use it to disambiguate owner-computes subscripts, and runs
	// must use the same size).
	Procs int
	// Level is the optimization level.
	Level Level
	// CSE enables the communication-eliminating transformations
	// (section 7) on top of the level.
	CSE bool
	// Exact uses the exponential simple-path search in cycle detection.
	Exact bool
	// Weaken lists delay pairs the code generator deliberately ignores,
	// seeding sequential-consistency violations for the dynamic verifier's
	// negative tests (internal/scverify). Leave empty for real compiles.
	Weaken []delay.Pair
}

// Program is a compiled MiniSplit program.
type Program struct {
	Opts     Options
	Fn       *ir.Fn
	Analysis *syncanal.Result
	Target   *target.Prog
	Codegen  codegen.Stats
	// Passes records per-pass instrumentation (wall time, counters, and —
	// when the driver asked for it — allocations) for the pipeline run
	// that produced the program.
	Passes []pass.Stat
	// Diags holds the structured diagnostics the pipeline reported,
	// including warnings from compiles that succeeded.
	Diags []diag.Diagnostic
}

// PipelineConfig translates the public options into the pass layer's
// Config. It is the single place the optimization levels are defined: a
// level is nothing more than a preset pass configuration.
func PipelineConfig(opts Options) (pass.Config, error) {
	cfg := pass.Config{
		Procs:   opts.Procs,
		Exact:   opts.Exact,
		Codegen: codegen.Options{CSE: opts.CSE, Weaken: opts.Weaken},
	}
	cg := &cfg.Codegen
	switch opts.Level {
	case LevelBlocking:
		cfg.Delays = pass.DelayFinal
	case LevelBaseline:
		cfg.Delays = pass.DelayBaseline
		cg.Pipeline = true
	case LevelPipelined:
		cfg.Delays = pass.DelayFinal
		cg.Pipeline = true
		cg.Hoist = true
	case LevelOneWay:
		cfg.Delays = pass.DelayFinal
		cg.Pipeline = true
		cg.OneWay = true
		cg.Hoist = true
	case LevelUnsafe:
		cfg.Delays = pass.DelayNone
		cg.Pipeline = true
		cg.OneWay = true
	default:
		return cfg, fmt.Errorf("splitc: unknown level %d", opts.Level)
	}
	return cfg, nil
}

// PassNames returns the names of the passes Compile would run for opts, in
// execution order.
func PassNames(opts Options) ([]string, error) {
	cfg, err := PipelineConfig(opts)
	if err != nil {
		return nil, err
	}
	return pass.PlanNames(cfg), nil
}

// Compile parses, checks, analyzes, and compiles src for a machine of
// opts.Procs processors: NewFront followed by Generate, the one way target
// code is produced. Drivers that need instrumentation hooks call the two
// halves themselves.
func Compile(src string, opts Options) (*Program, error) {
	return CompileContext(context.Background(), src, opts)
}

// CompileContext is Compile under a cancellation/deadline context. The
// pipeline checks ctx at every pass boundary, so a timed-out or canceled
// compile aborts within one pass of the signal; callers distinguish the
// abort from an ordinary compile error by inspecting ctx.Err(). This is
// the entry point the serving daemon (internal/serve) uses to bound
// per-request work.
func CompileContext(ctx context.Context, src string, opts Options) (*Program, error) {
	f, err := NewFront(ctx, src, opts, nil)
	if err != nil {
		return nil, err
	}
	return f.Generate(ctx, opts, nil)
}

// newPassContext prepares a pass context that carries ctx's cancellation.
func newPassContext(ctx context.Context, src string, cfg pass.Config) *pass.Context {
	pctx := pass.NewContext(src, cfg)
	if ctx != nil && ctx != context.Background() {
		pctx.Ctx = ctx
	}
	return pctx
}

// programOf packages whatever pctx holds after a pipeline run.
func programOf(pctx *pass.Context, opts Options, stats []pass.Stat) *Program {
	return &Program{
		Opts:     opts,
		Fn:       pctx.Fn,
		Analysis: pctx.Analysis,
		Target:   pctx.Prog(),
		Codegen:  pctx.CodegenStats(),
		Passes:   stats,
		Diags:    pctx.Diags.All(),
	}
}

// Front is the level-independent front half of a compile: the six passes
// parse, check, build-ir, conflict, cycle-detect and sync-analysis, which
// depend only on the source text, Options.Procs and Options.Exact. Generate
// runs the level's code generation passes, split-phase onward, over it, so
// a caller that needs one source at several levels (the dynamic verifier,
// EffectiveWeakenings) pays for parsing and the analyses once.
//
// A Front is immutable once NewFront returns. Generate reads AST, Info, Fn
// and Analysis and writes none of them, so any number of goroutines may
// Generate from one Front at once. Exactly one field behind them fills in
// on first read: Analysis.Baseline, the plain Shasha–Snir set, which only a
// LevelBaseline compile enforces, is computed once under a sync.Once by
// whichever reader asks first (every other delay.Set counts and decodes per
// call). Every Program generated from a Front shares its Fn and Analysis, so
// callers must treat them as read-only too.
type Front struct {
	Source   string
	Procs    int
	Exact    bool
	AST      *source.Program
	Info     *sem.Info
	Fn       *ir.Fn
	Analysis *syncanal.Result
	// Passes and Diags are the front passes' instrumentation and
	// diagnostics; every generated Program's lists start with them.
	Passes []pass.Stat
	Diags  []diag.Diagnostic
}

// planHalves splits the canonical plan for cfg at split-phase, the first
// pass that reads anything but Procs and Exact from the configuration.
func planHalves(cfg pass.Config) (front, back []pass.Pass) {
	plan := pass.Plan(cfg)
	for i, p := range plan {
		if p.Name() == "split-phase" {
			return plan[:i], plan[i:]
		}
	}
	return plan, nil
}

// NewFront runs the front half on src for a machine of opts.Procs
// processors; of opts only Procs and Exact are read. ctx is checked at
// every pass boundary, as in CompileContext. pl, which may be nil,
// supplies the instrumentation (Observer, MeasureAllocs). When a pass
// fails, the returned Front holds what the passes before it produced,
// alongside the error.
func NewFront(ctx context.Context, src string, opts Options, pl *pass.Pipeline) (*Front, error) {
	if opts.Procs <= 0 {
		return nil, fmt.Errorf("splitc: Options.Procs must be positive")
	}
	cfg := pass.Config{Procs: opts.Procs, Exact: opts.Exact}
	passes, _ := planHalves(cfg)
	pctx := newPassContext(ctx, src, cfg)
	stats, err := pl.Run(pctx, passes)
	return &Front{
		Source:   src,
		Procs:    opts.Procs,
		Exact:    opts.Exact,
		AST:      pctx.AST,
		Info:     pctx.Info,
		Fn:       pctx.Fn,
		Analysis: pctx.Analysis,
		Passes:   stats,
		Diags:    pctx.Diags.All(),
	}, err
}

// Generate compiles the front's source at opts.Level, running the passes
// from split-phase on. opts.Procs and opts.Exact must be the front's. The
// Program is what Compile(f.Source, opts) returns, sharing the front's Fn
// and Analysis; ctx and pl are as in NewFront.
func (f *Front) Generate(ctx context.Context, opts Options, pl *pass.Pipeline) (*Program, error) {
	if opts.Procs != f.Procs || opts.Exact != f.Exact {
		return nil, fmt.Errorf("splitc: front built for procs=%d exact=%v, Generate asked for procs=%d exact=%v",
			f.Procs, f.Exact, opts.Procs, opts.Exact)
	}
	cfg, err := PipelineConfig(opts)
	if err != nil {
		return nil, err
	}
	_, passes := planHalves(cfg)
	pctx := f.passContext(ctx, cfg)
	stats, err := pl.Run(pctx, passes)
	return programOf(pctx, opts, append(f.Passes[:len(f.Passes):len(f.Passes)], stats...)), err
}

// passContext returns a pass context in the state the front passes left
// theirs in — what they produced and what they reported — configured by cfg.
func (f *Front) passContext(ctx context.Context, cfg pass.Config) *pass.Context {
	pctx := newPassContext(ctx, f.Source, cfg)
	pctx.AST, pctx.Info, pctx.Fn, pctx.Analysis = f.AST, f.Info, f.Fn, f.Analysis
	for _, d := range f.Diags {
		pctx.Diags.Report(d)
	}
	return pctx
}

// MustCompile is Compile for tests and examples; it panics on error.
func MustCompile(src string, opts Options) *Program {
	p, err := Compile(src, opts)
	if err != nil {
		panic(err)
	}
	return p
}

// Run executes the compiled program on the simulated machine. The machine
// size must match the compile-time Procs.
func (p *Program) Run(cfg machine.Config, ropts interp.RunOptions) (*interp.Result, error) {
	if cfg.Procs != p.Opts.Procs {
		return nil, fmt.Errorf("splitc: program compiled for %d procs, machine has %d",
			p.Opts.Procs, cfg.Procs)
	}
	return interp.Run(p.Target, cfg, ropts)
}

// RunSC executes the program's IR under a sequentially consistent random
// interleaving (the reference semantics).
func (p *Program) RunSC(seed int64) (*interp.SCResult, error) {
	return interp.RunSC(p.Fn, p.Opts.Procs, seed)
}

// DelaySummary renders the analysis results (delay-set sizes etc.).
func (p *Program) DelaySummary() string { return p.Analysis.Summary() }

// TargetText renders the generated split-phase code.
func (p *Program) TargetText() string { return p.Target.String() }
