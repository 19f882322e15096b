package interp

// Differential fuzzing of the whole pipeline: random programs are compiled
// at every optimization level, executed on the weak-memory simulator under
// latency jitter, and every observed outcome must be producible by some
// sequentially consistent interleaving (the paper's system contract).
//
// The SC outcome set is exact (EnumerateSC). A program whose state space
// exceeds the enumeration budget is skipped and counted; a test fails if
// more than a tenth of its seeds are skipped, so it cannot silently empty
// out.

import (
	"os"
	"strconv"
	"testing"

	"repro/internal/codegen"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/progen"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/syncanal"
)

const fuzzProcs = 2

// fuzzBudget is the enumeration budget per generated program; the largest
// of the default seeds needs about ten thousand states.
const fuzzBudget = 1_000_000

// checkSkips fails t when more than a tenth of its seeds were too large to
// enumerate exactly.
func checkSkips(t *testing.T, skipped, seeds int64) {
	t.Helper()
	if skipped*10 > seeds {
		t.Errorf("%d of %d seeds exceeded the enumeration budget and were skipped", skipped, seeds)
	}
}

func TestFuzzWeakOutcomesAreSC(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing skipped in -short mode")
	}
	levels := []struct {
		name     string
		baseline bool // enforce the Shasha–Snir set instead of D
		opts     codegen.Options
	}{
		{"baseline", true, codegen.Options{Pipeline: true}},
		{"pipelined", false, codegen.Options{Pipeline: true}},
		{"oneway", false, codegen.Options{Pipeline: true, OneWay: true}},
		{"oneway+cse", false, codegen.Options{Pipeline: true, OneWay: true, CSE: true}},
		{"oneway+cse+hoist", false, codegen.Options{Pipeline: true, OneWay: true, CSE: true, Hoist: true}},
	}
	seeds := int64(60)
	if v := os.Getenv("SPLITC_FUZZ_SEEDS"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 {
			seeds = n
		}
	}
	skipped := int64(0)
	for seed := int64(0); seed < seeds; seed++ {
		src := progen.Generate(seed, progen.Options{Procs: fuzzProcs})
		prog, err := source.Parse(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		info, err := sem.Check(prog)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fn, err := ir.Build(info, ir.BuildOptions{Procs: fuzzProcs})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		analysis := syncanal.Analyze(fn, syncanal.Options{})
		sc, exact := EnumerateSC(fn, fuzzProcs, fuzzBudget)
		if !exact {
			skipped++
			continue
		}
		for _, lvl := range levels {
			delays := analysis.D
			if lvl.baseline {
				delays = analysis.Baseline
			}
			tprog := codegen.Generate(fn, delays, lvl.opts).Prog
			for ws := int64(0); ws < 8; ws++ {
				res, err := Run(tprog, machine.CM5(fuzzProcs), RunOptions{
					Jitter: 5, Seed: ws, VerifyDelays: delays,
				})
				if err != nil {
					t.Fatalf("seed %d/%s/ws %d: %v\n%s", seed, lvl.name, ws, err, src)
				}
				if key := OutcomeKey(res.Memory, res.Prints); !sc[key] {
					t.Fatalf("program seed %d, level %s, weak seed %d: SC VIOLATION\noutcome: %s\nSC set: %d entries\nprogram:\n%s",
						seed, lvl.name, ws, key, len(sc), src)
				}
			}
		}
	}
	checkSkips(t, skipped, seeds)
}

// TestFuzzDeterministicProgramsStable: when a generated program has exactly
// one SC outcome it is determinate, and every jittered run of its most
// optimized code must produce that outcome.
func TestFuzzDeterministicProgramsStable(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing skipped in -short mode")
	}
	const first, last = 100, 140
	skipped := int64(0)
	for seed := int64(first); seed < last; seed++ {
		src := progen.Generate(seed, progen.Options{Procs: fuzzProcs})
		prog, err := source.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		info, err := sem.Check(prog)
		if err != nil {
			t.Fatal(err)
		}
		fn, err := ir.Build(info, ir.BuildOptions{Procs: fuzzProcs})
		if err != nil {
			t.Fatal(err)
		}
		probe, exact := EnumerateSC(fn, fuzzProcs, fuzzBudget)
		if !exact {
			skipped++
			continue
		}
		if len(probe) != 1 {
			continue // racy program; covered by the containment fuzz
		}
		var want string
		for k := range probe {
			want = k
		}
		analysis := syncanal.Analyze(fn, syncanal.Options{})
		tprog := codegen.Generate(fn, analysis.D, codegen.Options{Pipeline: true, OneWay: true, CSE: true, Hoist: true}).Prog
		for ws := int64(0); ws < 6; ws++ {
			res, err := Run(tprog, machine.CM5(fuzzProcs), RunOptions{Jitter: 4, Seed: ws})
			if err != nil {
				t.Fatalf("seed %d ws %d: %v\n%s", seed, ws, err, src)
			}
			if got := OutcomeKey(res.Memory, res.Prints); got != want {
				t.Fatalf("seed %d ws %d: optimized run diverged from the program's only SC outcome\ngot:  %s\nwant: %s\nprogram:\n%s",
					seed, ws, got, want, src)
			}
		}
	}
	checkSkips(t, skipped, last-first)
}
