package pass

import (
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

// stepPass runs one step of codegen's table and counts what it did.
type stepPass struct{ step codegen.Step }

func (p *stepPass) Name() string { return p.step.Name }

func (p *stepPass) Run(ctx *Context) error {
	ctx.Gen.Run(p.step, ctx.Count)
	return nil
}

// stepPasses wraps each step of codegen's table in a pass of its name, in
// the table's order.
var stepPasses = func() []*stepPass {
	out := make([]*stepPass, 0, len(codegen.Steps()))
	for _, s := range codegen.Steps() {
		out = append(out, &stepPass{s})
	}
	return out
}()

func (ctx *Context) analysisOptions() syncanal.Options {
	return syncanal.Options{Exact: ctx.Config.Exact}
}

// passes is every pass through split-phase, in pipeline order; every plan
// runs them all, then the passes of the codegen steps its Config enables.
// Each reads what the ones before it left in the Context and checks none of
// it: Plan is the only thing that orders them, so a pass never runs before
// its inputs exist.
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
		ctx.Analysis = syncanal.Prepare(ctx.Fn)
		ctx.Count("accesses", ctx.Analysis.CS.N())
		ctx.Count("conflict_pairs", ctx.Analysis.CS.Size())
		return nil
	}},
	&funcPass{"cycle-detect", func(ctx *Context) error {
		if n := len(ctx.Analysis.Fn.Accesses); ctx.Config.Exact && n > delay.ExactLimit {
			ctx.Diags.Warnf("cycle-detect", source.Pos{},
				"exact search is bounded at %d accesses; n = %d, using the polynomial search", delay.ExactLimit, n)
		}
		ctx.Analysis.ComputeD1(ctx.analysisOptions())
		ctx.Count("d1_delays", ctx.Analysis.D1.Size())
		return nil
	}},
	&funcPass{"sync-analysis", func(ctx *Context) error {
		a := ctx.Analysis
		a.RefineSync(ctx.analysisOptions())
		ctx.Count("precedence_pairs", a.R.Size())
		ctx.Count("r_classes", a.RClasses)
		ctx.Count("final_delays", a.D.Size())
		ctx.Count("lock_guarded", len(a.Guards))
		cophase := 0
		if a.CoPhase != nil {
			cophase = a.CoPhase.Count()
		}
		ctx.Count("cophase_pairs", cophase)
		ctx.Count("regions", a.Regions)
		ctx.Count("largest_region", a.LargestRegion)
		return nil
	}},
	&funcPass{"split-phase", func(ctx *Context) error {
		a := ctx.Analysis
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
		for _, p := range ctx.Config.Codegen.Weaken {
			if !ctx.Delays.Has(p.A, p.B) {
				pos := source.Pos{}
				if p.A >= 0 && p.A < len(ctx.Fn.Accesses) {
					pos = ctx.Fn.Accesses[p.A].Pos
				}
				ctx.Diags.Warnf("split-phase", pos,
					"weakened pair (a%d, a%d) is not in the enforced delay set; weakening has no effect", p.A, p.B)
			}
		}
		ctx.Gen = codegen.New(ctx.Fn, ctx.Delays, ctx.Config.Codegen)
		ts := ctx.Gen.Prog().CollectStats()
		ctx.Count("gets", ts.Gets)
		ctx.Count("puts", ts.Puts)
		ctx.Count("enforced_delays", ctx.Delays.Size())
		return nil
	}},
}

// Plan builds the pipeline for cfg: every pass through split-phase, then
// one pass per codegen step cfg.Codegen enables, in the step table's order.
func Plan(cfg Config) []Pass {
	out := make([]Pass, len(passes), len(passes)+len(stepPasses))
	copy(out, passes)
	for _, p := range stepPasses {
		if p.step.Enabled(cfg.Codegen) {
			out = append(out, p)
		}
	}
	return out
}

// PlanNames returns the names of the passes Plan runs for cfg, in order.
func PlanNames(cfg Config) []string {
	plan := Plan(cfg)
	names := make([]string, len(plan))
	for i, p := range plan {
		names[i] = p.Name()
	}
	return names
}
