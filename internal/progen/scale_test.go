package progen

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/sem"
	"repro/internal/source"
)

// TestScaleTiersPinned builds every scaling tier and pins its access and
// barrier counts: the tiers are shared coordinates between the benchmarks,
// the pinned-size tests and the system benchmark, so a generator change that
// moves them must be deliberate (and update the recorded numbers here and
// in ScaleTiers).
func TestScaleTiersPinned(t *testing.T) {
	wantBarriers := map[string]int{"acc2048": 12, "acc8192": 12, "acc32768": 12}
	for _, tier := range ScaleTiers() {
		prog, err := source.Parse(Generate(tier.Seed, tier.Opts))
		if err != nil {
			t.Fatalf("%s: parse: %v", tier.Name, err)
		}
		info, err := sem.Check(prog)
		if err != nil {
			t.Fatalf("%s: sem: %v", tier.Name, err)
		}
		fn, err := ir.Build(info, ir.BuildOptions{Procs: tier.Opts.Procs})
		if err != nil {
			t.Fatalf("%s: build: %v", tier.Name, err)
		}
		if len(fn.Accesses) != tier.Accesses {
			t.Errorf("%s: built %d accesses, tier pins %d", tier.Name, len(fn.Accesses), tier.Accesses)
		}
		barriers := 0
		for _, a := range fn.Accesses {
			if a.Kind == ir.AccBarrier {
				barriers++
			}
		}
		if barriers != wantBarriers[tier.Name] {
			t.Errorf("%s: %d barriers, want %d", tier.Name, barriers, wantBarriers[tier.Name])
		}
	}
	if _, ok := FindScaleTier("acc8192"); !ok {
		t.Fatal("FindScaleTier(acc8192) not found")
	}
	if _, ok := FindScaleTier("nope"); ok {
		t.Fatal("FindScaleTier(nope) unexpectedly found")
	}
}
