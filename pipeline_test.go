package splitc

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/codegen"
	"repro/internal/delay"
	"repro/internal/ir"
	"repro/internal/progen"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/syncanal"
)

// referenceCompile is a compile written out by hand, without internal/pass:
// the front end, one syncanal.Analyze, and one codegen.Generate call with
// the level spelled as codegen options. It is the second statement of the
// step order (codegen.Generate's doc comment says why there is one), and the
// pipeline must match its output byte for byte.
func referenceCompile(t *testing.T, src string, opts Options) (*codegen.Result, *syncanal.Result) {
	t.Helper()
	ast, err := source.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sem.Check(ast)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := ir.Build(info, ir.BuildOptions{Procs: opts.Procs})
	if err != nil {
		t.Fatal(err)
	}
	analysis := syncanal.Analyze(fn, syncanal.Options{Exact: opts.Exact})
	cg := codegen.Options{CSE: opts.CSE, Weaken: opts.Weaken}
	switch opts.Level {
	case LevelBlocking:
		cg.Delays = analysis.D
	case LevelBaseline:
		cg.Delays = analysis.Baseline
		cg.Pipeline = true
	case LevelPipelined:
		cg.Delays = analysis.D
		cg.Pipeline = true
		cg.Hoist = true
	case LevelOneWay:
		cg.Delays = analysis.D
		cg.Pipeline = true
		cg.OneWay = true
		cg.Hoist = true
	case LevelUnsafe:
		cg.Delays = delay.NewSet(fn)
		cg.Pipeline = true
		cg.OneWay = true
	default:
		t.Fatalf("unknown level %d", opts.Level)
	}
	return codegen.Generate(fn, cg), analysis
}

func checkPipelineMatchesLegacy(t *testing.T, name, src string, opts Options) {
	t.Helper()
	want, wantAnalysis := referenceCompile(t, src, opts)
	got, err := Compile(src, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if g, w := got.TargetText(), want.Prog.String(); g != w {
		t.Errorf("%s @ %s: pipeline target text differs from the reference compile\npipeline:\n%s\nreference:\n%s",
			name, opts.Level, g, w)
	}
	if got.Codegen != want.Stats {
		t.Errorf("%s @ %s: stats differ: pipeline %+v, reference %+v",
			name, opts.Level, got.Codegen, want.Stats)
	}
	if g, w := got.Analysis.D.Size(), wantAnalysis.D.Size(); g != w {
		t.Errorf("%s @ %s: final delay set size %d, reference %d", name, opts.Level, g, w)
	}
}

var equivalenceLevels = []Level{LevelBlocking, LevelBaseline, LevelPipelined, LevelOneWay, LevelUnsafe}

func TestPipelineMatchesLegacyApps(t *testing.T) {
	for _, k := range apps.All() {
		src := k.Source(16, 1)
		for _, lvl := range equivalenceLevels {
			for _, cse := range []bool{false, true} {
				checkPipelineMatchesLegacy(t, k.Name, src, Options{Procs: 16, Level: lvl, CSE: cse})
			}
		}
	}
}

func TestPipelineMatchesLegacyGenerated(t *testing.T) {
	const seeds = 30
	for seed := int64(0); seed < seeds; seed++ {
		src := progen.Generate(seed, progen.Options{Procs: 8})
		for _, lvl := range equivalenceLevels {
			checkPipelineMatchesLegacy(t, "progen", src, Options{Procs: 8, Level: lvl, CSE: seed%2 == 0})
		}
	}
}

func TestPipelineMatchesLegacyAblations(t *testing.T) {
	src := apps.All()[0].Source(16, 1)
	checkPipelineMatchesLegacy(t, "exact", src, Options{Procs: 16, Level: LevelOneWay, Exact: true})
}

// TestPassStatsReproduceCodegenStats checks satellite invariants of the new
// per-pass instrumentation: summing each counter over the pipeline's passes
// must reproduce the monolithic codegen.Stats, and the communication
// counters must conserve the lowered gets and puts.
func TestPassStatsReproduceCodegenStats(t *testing.T) {
	for _, k := range apps.All() {
		src := k.Source(16, 1)
		for _, lvl := range equivalenceLevels {
			prog, err := Compile(src, Options{Procs: 16, Level: lvl, CSE: true})
			if err != nil {
				t.Fatalf("%s @ %s: %v", k.Name, lvl, err)
			}
			summed := make(map[string]int)
			perPass := make(map[string]map[string]int)
			for _, st := range prog.Passes {
				perPass[st.Name] = st.Counters
				for c, v := range st.Counters {
					summed[c] += v
				}
			}
			for c, v := range prog.Codegen.Map() {
				if summed[c] != v {
					t.Errorf("%s @ %s: counter %s summed over passes = %d, codegen.Stats = %d",
						k.Name, lvl, c, summed[c], v)
				}
			}
			// Conservation: every get lowered by split-phase is either in
			// the final program or accounted to an eliminating transform.
			ts := prog.Target.CollectStats()
			s := prog.Codegen
			lowered := perPass["split-phase"]
			if got := ts.Gets + s.GetsEliminated + s.GetsForwarded + s.GetsDead + s.GetsCached; got != lowered["gets"] {
				t.Errorf("%s @ %s: gets not conserved: final+eliminated = %d, lowered = %d",
					k.Name, lvl, got, lowered["gets"])
			}
			if got := ts.Puts + ts.Stores + s.PutsEliminated; got != lowered["puts"] {
				t.Errorf("%s @ %s: puts not conserved: final+stores+eliminated = %d, lowered = %d",
					k.Name, lvl, got, lowered["puts"])
			}
			if ts.Stores != s.PutsConverted {
				t.Errorf("%s @ %s: stores = %d, puts_converted = %d",
					k.Name, lvl, ts.Stores, s.PutsConverted)
			}
			// Every pass that ran must be in the planned name list, in order.
			names, err := PassNames(Options{Procs: 16, Level: lvl, CSE: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != len(prog.Passes) {
				t.Fatalf("%s @ %s: %d passes ran, plan has %d", k.Name, lvl, len(prog.Passes), len(names))
			}
			for i, st := range prog.Passes {
				if st.Name != names[i] {
					t.Errorf("%s @ %s: pass %d is %s, plan says %s", k.Name, lvl, i, st.Name, names[i])
				}
			}
		}
	}
}
