package splitc

import (
	"strings"
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
// the level spelled as a delay set and codegen options. It is a second
// statement of the level table (PipelineConfig is the first), not of the
// step order, which only codegen's step table states; the pipeline must
// match its output byte for byte.
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
	var delays *delay.Set
	switch opts.Level {
	case LevelBlocking:
		delays = analysis.D
	case LevelBaseline:
		delays = analysis.Baseline
		cg.Pipeline = true
	case LevelPipelined:
		delays = analysis.D
		cg.Pipeline = true
		cg.Hoist = true
	case LevelOneWay:
		delays = analysis.D
		cg.Pipeline = true
		cg.OneWay = true
		cg.Hoist = true
	case LevelUnsafe:
		delays = delay.NewSet(fn)
		cg.Pipeline = true
		cg.OneWay = true
	default:
		t.Fatalf("unknown level %d", opts.Level)
	}
	return codegen.Generate(fn, delays, cg), analysis
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
			if got := ts.Gets + s.GetsForwarded + s.GetsCached; got != lowered["gets"] {
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

// TestPassNamesPinned lists the passes each level runs, with and without
// CSE, name for name. The names are an interface: the benchmark maps each to
// a layer, pscd's compile responses list them (and its cache keeps them
// under keyVersion), and CI uploads the per-pass table. A rename or a
// reordering must change this test on purpose.
func TestPassNamesPinned(t *testing.T) {
	const front = "parse check build-ir conflict cycle-detect sync-analysis split-phase "
	const cse = "licm cse "
	for _, c := range []struct {
		level Level
		cse   bool
		want  string
	}{
		{LevelBlocking, false, front + "sync-motion counter-alloc insert-syncs"},
		{LevelBlocking, true, front + cse + "sync-motion counter-alloc insert-syncs"},
		{LevelBaseline, false, front + "sync-motion counter-alloc insert-syncs"},
		{LevelBaseline, true, front + cse + "sync-motion counter-alloc insert-syncs"},
		{LevelPipelined, false, front + "hoist sync-motion counter-alloc insert-syncs"},
		{LevelPipelined, true, front + cse + "hoist sync-motion counter-alloc insert-syncs"},
		{LevelOneWay, false, front + "hoist sync-motion one-way counter-alloc insert-syncs"},
		{LevelOneWay, true, front + cse + "hoist sync-motion one-way counter-alloc insert-syncs"},
		{LevelUnsafe, false, front + "sync-motion one-way counter-alloc insert-syncs"},
		{LevelUnsafe, true, front + cse + "sync-motion one-way counter-alloc insert-syncs"},
	} {
		names, err := PassNames(Options{Procs: 4, Level: c.level, CSE: c.cse})
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(names, " "); got != c.want {
			t.Errorf("%s cse=%v: passes\n  %s\nwant\n  %s", c.level, c.cse, got, c.want)
		}
	}
}
