package delay

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/conflict"
	"repro/internal/ir"
	"repro/internal/progen"
	"repro/internal/sem"
	"repro/internal/source"
)

// benchProgram mirrors the scaling-program selection of the syncanal and
// bench packages: fixed progen options scaled by target, first seed whose
// built function lands within [0.9, 1.25]x the target access count.
func benchProgram(tb testing.TB, target int) *ir.Fn {
	tb.Helper()
	opts := progen.Options{
		Procs: 4, MaxPhases: 4, MaxStmts: target / 4, MaxDepth: 2,
		Arrays: 3, Scalars: 3, Events: 2, Locks: 2,
	}
	for seed := int64(0); seed < 500; seed++ {
		prog, err := source.Parse(progen.Generate(seed, opts))
		if err != nil {
			continue
		}
		info, err := sem.Check(prog)
		if err != nil {
			continue
		}
		fn, err := ir.Build(info, ir.BuildOptions{Procs: 4})
		if err != nil {
			continue
		}
		if n := len(fn.Accesses); n >= target*9/10 && n <= target*5/4 {
			return fn
		}
	}
	tb.Fatalf("no progen seed lands near %d accesses", target)
	return nil
}

// tierFn builds a pinned progen scale tier (no seed scan at bench time).
func tierFn(tb testing.TB, name string) *ir.Fn {
	tb.Helper()
	tier, ok := progen.FindScaleTier(name)
	if !ok {
		tb.Fatalf("unknown scale tier %q", name)
	}
	prog, err := source.Parse(progen.Generate(tier.Seed, tier.Opts))
	if err != nil {
		tb.Fatalf("%s: parse: %v", name, err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		tb.Fatalf("%s: sem: %v", name, err)
	}
	fn, err := ir.Build(info, ir.BuildOptions{Procs: tier.Opts.Procs})
	if err != nil {
		tb.Fatalf("%s: build: %v", name, err)
	}
	return fn
}

// BenchmarkAnalysisDelayCompute measures the back-path engine alone
// (plain Shasha-Snir over a prebuilt access graph and conflict set). The
// small sizes scan for a seed; the large entries are the pinned
// progen.ScaleTiers programs, exercising the hub-compressed symmetric
// engine far past the quadratic-matrix sizes.
func BenchmarkAnalysisDelayCompute(b *testing.B) {
	run := func(name string, fn *ir.Fn) {
		ag := ir.BuildAccessGraph(fn)
		cs := conflict.Compute(fn)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Compute(ag, cs, Constraints{})
			}
		})
	}
	for _, size := range []int{64, 128, 256, 512} {
		run(fmt.Sprintf("acc%d", size), benchProgram(b, size))
	}
	if os.Getenv("PSC_SCALE_TIERS") == "" {
		b.Log("set PSC_SCALE_TIERS=1 to run the multi-second scale tiers")
		return
	}
	for _, name := range []string{"acc2048", "acc8192", "acc32768"} {
		run(name, tierFn(b, name))
	}
}
