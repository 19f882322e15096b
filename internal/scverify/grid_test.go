package scverify

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/ir"
	"repro/internal/progen"
)

// TestVerifyApps runs the dynamic verifier over the five paper kernels at
// every optimization level: no ordering cycles, and every schedule's final
// memory must match the blocking reference and the sequential Go oracle.
func TestVerifyApps(t *testing.T) {
	const procs, scale = 4, 1
	for _, k := range apps.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			t.Parallel()
			rep, err := Verify(k.Source(procs, scale), Options{
				Procs:         procs,
				Schedules:     Schedules(4),
				Deterministic: true,
				Validate: func(mem map[string][]ir.Value) error {
					return k.Validate(mem, procs, scale)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Errorf("%s flagged:\n%s%s", k.Name, rep.Summary(), dumpViolations(rep))
			}
			if rep.Runs() == 0 {
				t.Error("no runs executed")
			}
		})
	}
}

// TestVerifyProgenGrid sweeps generated programs (the acceptance grid:
// >= 150 seeds, three levels, multiple schedules). Generated programs
// race, so outcomes are checked against the exhaustive SC outcome set
// when the enumeration fits the budget; trace acyclicity is checked
// always. The partial-order-reduced model checker is what makes a grid
// this wide affordable: the old enumerator capped the same test at 60
// seeds and routinely fell back to sampled schedules.
func TestVerifyProgenGrid(t *testing.T) {
	const procs = 2
	seeds := int64(150)
	shards := 4
	if testing.Short() {
		seeds = 60
		shards = 1
	}
	for shard := 0; shard < shards; shard++ {
		shard := shard
		t.Run(fmt.Sprintf("shard%d", shard), func(t *testing.T) {
			t.Parallel()
			exact := 0
			for seed := int64(shard); seed < seeds; seed += int64(shards) {
				src := progen.Generate(seed, progen.Options{Procs: procs})
				rep, err := Verify(src, Options{
					Procs:      procs,
					Schedules:  Schedules(4),
					EnumBudget: 400_000,
				})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !rep.OK() {
					t.Errorf("seed %d flagged:\n%s%s\nsource:\n%s",
						seed, rep.Summary(), dumpViolations(rep), src)
				}
				if rep.ExactOracle {
					exact++
				}
			}
			t.Logf("shard %d: exact SC oracle on %d programs", shard, exact)
		})
	}
}

// FuzzSCVerify feeds generator seeds and a schedule seed to the full
// verifier pipeline: any cycle or SC-unreachable outcome on an unweakened
// compile is a checker or compiler bug. The SC oracle's own differential,
// the reduced enumerator against the unreduced reference on the same
// programs, is interp's FuzzEnumeratorsMatchReference.
func FuzzSCVerify(f *testing.F) {
	f.Add(int64(1), int64(0))
	f.Add(int64(7), int64(3))
	f.Add(int64(42), int64(11))
	f.Fuzz(func(t *testing.T, progSeed, schedSeed int64) {
		const procs = 2
		src := progen.Generate(progSeed, progen.Options{Procs: procs})
		rep, err := Verify(src, Options{
			Procs: procs,
			Schedules: []Schedule{
				{},
				{Seed: schedSeed, Jitter: 0.45, Perturb: true},
				{Seed: schedSeed + 1, Jitter: 8, Perturb: true},
			},
			EnumBudget: 250_000,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", progSeed, err)
		}
		if !rep.OK() {
			t.Fatalf("seed %d flagged:\n%s%s\nsource:\n%s",
				progSeed, rep.Summary(), dumpViolations(rep), src)
		}
	})
}
