package pass

import (
	"fmt"
	"strings"

	"repro/internal/codegen"
	"repro/internal/delay"
	"repro/internal/ir"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/syncanal"
)

// funcPass adapts a function to the Pass interface.
type funcPass struct {
	name string
	run  func(ctx *Context) error
}

func (p *funcPass) Name() string           { return p.name }
func (p *funcPass) Run(ctx *Context) error { return p.run(ctx) }

// codegenPass is a Pass that advances the stepwise code generator. The
// pipeline attributes optimizer counters to it by diffing codegen.Stats
// around the step.
type codegenPass struct {
	name  string
	step  func(g *codegen.Generator)
	extra func(ctx *Context) // optional additional counters
}

func (p *codegenPass) Name() string { return p.name }

func (p *codegenPass) Run(ctx *Context) error {
	if ctx.Gen == nil {
		return ctx.Errorf(p.name, source.Pos{}, "pass %q requires split-phase", p.name)
	}
	before := ctx.Gen.Stats()
	p.step(ctx.Gen)
	for k, v := range ctx.Gen.Stats().Sub(before).Map() {
		ctx.Count(k, v)
	}
	if p.extra != nil {
		p.extra(ctx)
	}
	return nil
}

func (ctx *Context) analysisOptions() syncanal.Options {
	return syncanal.Options{Exact: ctx.Config.Exact}
}

// The named passes. Front-end and analysis passes validate their
// prerequisites at run time so hand-assembled pass lists fail with a
// structured diagnostic instead of a nil dereference.
var passes = []Pass{
	&funcPass{"parse", func(ctx *Context) error {
		ast, err := source.Parse(ctx.Source)
		if err != nil {
			if pe, ok := err.(*source.ParseError); ok {
				return ctx.Errorf("parse", pe.Pos, "%s", pe.Msg)
			}
			return ctx.Errorf("parse", source.Pos{}, "%s", err)
		}
		ctx.AST = ast
		ctx.Count("decls", len(ast.Decls))
		ctx.Count("funcs", len(ast.Funcs()))
		return nil
	}},
	&funcPass{"check", func(ctx *Context) error {
		if ctx.AST == nil {
			return ctx.Errorf("check", source.Pos{}, "pass %q requires parse", "check")
		}
		info, err := sem.Check(ctx.AST)
		if err != nil {
			if se, ok := err.(*sem.Error); ok {
				return ctx.Errorf("check", se.Pos, "%s", se.Msg)
			}
			return ctx.Errorf("check", source.Pos{}, "%s", err)
		}
		ctx.Info = info
		ctx.Count("shared_symbols", len(info.Shared))
		ctx.Count("events", len(info.Events))
		ctx.Count("locks", len(info.Locks))
		return nil
	}},
	&funcPass{"build-ir", func(ctx *Context) error {
		if ctx.Info == nil {
			return ctx.Errorf("build-ir", source.Pos{}, "pass %q requires check", "build-ir")
		}
		fn, err := ir.Build(ctx.Info, ir.BuildOptions{Procs: ctx.Config.Procs})
		if err != nil {
			if se, ok := err.(*sem.Error); ok {
				return ctx.Errorf("build-ir", se.Pos, "%s", se.Msg)
			}
			return ctx.Errorf("build-ir", source.Pos{}, "%s", err)
		}
		ctx.Fn = fn
		ctx.Count("blocks", len(fn.Blocks))
		ctx.Count("locals", len(fn.Locals))
		ctx.Count("accesses", len(fn.Accesses))
		return nil
	}},
	&funcPass{"conflict", func(ctx *Context) error {
		if ctx.Fn == nil {
			return ctx.Errorf("conflict", source.Pos{}, "pass %q requires build-ir", "conflict")
		}
		ctx.Analysis = syncanal.Prepare(ctx.Fn)
		ctx.Count("accesses", ctx.Analysis.CS.N())
		ctx.Count("conflict_pairs", ctx.Analysis.CS.Size())
		return nil
	}},
	&funcPass{"cycle-detect", func(ctx *Context) error {
		if ctx.Analysis == nil {
			return ctx.Errorf("cycle-detect", source.Pos{}, "pass %q requires conflict", "cycle-detect")
		}
		if n := len(ctx.Analysis.Fn.Accesses); ctx.Config.Exact && n > delay.ExactLimit {
			ctx.Diags.Warnf("cycle-detect", source.Pos{},
				"exact search is bounded at %d accesses; n = %d, using the polynomial search", delay.ExactLimit, n)
		}
		ctx.Analysis.ComputeBaseline(ctx.analysisOptions())
		ctx.Count("baseline_delays", ctx.Analysis.Baseline.Size())
		return nil
	}},
	&funcPass{"sync-analysis", func(ctx *Context) error {
		a := ctx.Analysis
		if a == nil || a.Baseline == nil {
			return ctx.Errorf("sync-analysis", source.Pos{}, "pass %q requires cycle-detect (D1 is read off its baseline set)", "sync-analysis")
		}
		a.RefineSync(ctx.analysisOptions())
		ctx.Count("d1_delays", a.D1.Size())
		ctx.Count("precedence_pairs", a.R.Size())
		ctx.Count("r_classes", a.RClasses)
		ctx.Count("final_delays", a.D.Size())
		ctx.Count("lock_guarded", len(a.Guards))
		cophase := 0
		if a.CoPhase != nil {
			cophase = a.CoPhase.Count()
		}
		ctx.Count("cophase_accesses", cophase)
		ctx.Count("regions", a.Regions)
		ctx.Count("largest_region", a.LargestRegion)
		return nil
	}},
	&funcPass{"split-phase", func(ctx *Context) error {
		a := ctx.Analysis
		if ctx.Fn == nil || a == nil || a.D == nil {
			return ctx.Errorf("split-phase", source.Pos{}, "pass %q requires sync-analysis", "split-phase")
		}
		switch ctx.Config.Delays {
		case DelayBaseline:
			ctx.Delays = a.Baseline
		case DelayNone:
			ctx.Delays = delay.NewSet(ctx.Fn)
			ctx.Diags.Warnf("split-phase", source.Pos{},
				"compiling with an empty delay set: sequential consistency is not enforced")
		default:
			ctx.Delays = a.D
		}
		for _, p := range ctx.Config.Weaken {
			if !ctx.Delays.Has(p.A, p.B) {
				pos := source.Pos{}
				if p.A >= 0 && p.A < len(ctx.Fn.Accesses) {
					pos = ctx.Fn.Accesses[p.A].Pos
				}
				ctx.Diags.Warnf("split-phase", pos,
					"weakened pair (a%d, a%d) is not in the enforced delay set; weakening has no effect", p.A, p.B)
			}
		}
		ctx.Gen = codegen.New(ctx.Fn, codegen.Options{
			Delays:   ctx.Delays,
			Pipeline: ctx.Config.Motion,
			OneWay:   ctx.Config.OneWay,
			CSE:      ctx.Config.CSE,
			Hoist:    ctx.Config.Hoist,
			Weaken:   ctx.Config.Weaken,
		})
		ctx.Gen.Lower()
		ts := ctx.Gen.Prog().CollectStats()
		ctx.Count("gets", ts.Gets)
		ctx.Count("puts", ts.Puts)
		ctx.Count("enforced_delays", ctx.Delays.Size())
		return nil
	}},
	&codegenPass{name: "cse", step: func(g *codegen.Generator) {
		g.EliminateDeadGets()
		g.EliminateLocal()
	}},
	&codegenPass{name: "licm", step: func(g *codegen.Generator) {
		g.HoistLoopInvariant()
	}},
	&codegenPass{name: "global-reuse", step: func(g *codegen.Generator) {
		g.GlobalReuse()
	}},
	&codegenPass{name: "hoist", step: func(g *codegen.Generator) {
		g.Hoist()
	}},
	&codegenPass{name: "sync-motion", step: func(g *codegen.Generator) {
		g.PlaceSyncs()
	}, extra: func(ctx *Context) {
		placed, dropped := ctx.Gen.SyncSites()
		ctx.Count("sync_sites", placed)
		ctx.Count("sync_copies_off_end", dropped)
	}},
	&codegenPass{name: "one-way", step: func(g *codegen.Generator) {
		g.ConvertOneWay()
	}},
	&codegenPass{name: "counter-alloc", step: func(g *codegen.Generator) {
		g.AllocateCounters()
	}, extra: func(ctx *Context) {
		ctx.Count("counters", ctx.Prog().Counters)
	}},
	&codegenPass{name: "insert-syncs", step: func(g *codegen.Generator) {
		g.InsertSyncs()
	}, extra: func(ctx *Context) {
		ts := ctx.Prog().CollectStats()
		ctx.Count("syncs", ts.Syncs)
		ctx.Count("stores", ts.Stores)
	}},
}

var byName = func() map[string]Pass {
	m := make(map[string]Pass, len(passes))
	for _, p := range passes {
		m[p.Name()] = p
	}
	return m
}()

// Names returns every registered pass name in canonical pipeline order.
func Names() []string {
	out := make([]string, len(passes))
	for i, p := range passes {
		out[i] = p.Name()
	}
	return out
}

// Lookup returns the registered pass with the given name.
func Lookup(name string) (Pass, bool) {
	p, ok := byName[name]
	return p, ok
}

// ParseList resolves a comma-separated pass list ("parse,check,build-ir").
func ParseList(spec string) ([]Pass, error) {
	var out []Pass
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		p, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown pass %q (known: %s)", name, strings.Join(Names(), ", "))
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty pass list")
	}
	return out, nil
}

// PlanNames returns the pass names Plan would run for cfg, in order.
func PlanNames(cfg Config) []string {
	names := []string{"parse", "check", "build-ir", "conflict", "cycle-detect", "sync-analysis", "split-phase"}
	if cfg.CSE {
		names = append(names, "cse", "licm", "global-reuse")
	}
	if cfg.Hoist {
		names = append(names, "hoist")
	}
	names = append(names, "sync-motion")
	if cfg.OneWay {
		names = append(names, "one-way")
	}
	return append(names, "counter-alloc", "insert-syncs")
}

// Plan builds the canonical pipeline for cfg. The sequence performs exactly
// the steps codegen.Generate would, in the same order, so compiling through
// a planned pipeline is byte-identical to the legacy single-call path.
func Plan(cfg Config) []Pass {
	names := PlanNames(cfg)
	out := make([]Pass, len(names))
	for i, n := range names {
		out[i] = byName[n]
	}
	return out
}
