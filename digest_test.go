package splitc

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/progen"
)

// TestResultDigest prints one SHA-256 per program family over everything a
// change to the analysis or the code generator must leave alone:
// |Baseline|, |D1|, |R|, |D|, RClasses, every pair of D, and the target text
// and non-zero codegen.Stats counters (by name, sorted) at blocking,
// baseline (the one level that enforces the baseline set), pipelined and
// oneway with CSE. Hashing counters by name keeps a line still when a
// counter that reads zero everywhere is deleted. It asserts nothing; such a
// PR runs it at the parent and at the change and quotes both outputs, which
// must be equal line for line:
//
//	PSC_RESULT_DIGEST=1 go test -run TestResultDigest -v .
//
// PSC_SCALE_TIERS=1 adds acc8192 and acc32768 (sizes and RClasses only, one
// analysis each).
func TestResultDigest(t *testing.T) {
	if os.Getenv("PSC_RESULT_DIGEST") == "" {
		t.Skip("set PSC_RESULT_DIGEST=1 to print the result digests")
	}
	levels := []Level{LevelBlocking, LevelBaseline, LevelPipelined, LevelOneWay}
	family := func(name string, srcs func(yield func(src string, procs int, full bool))) {
		h := sha256.New()
		programs := 0
		srcs(func(src string, procs int, full bool) {
			f, err := NewFront(context.Background(), src, Options{Procs: procs}, nil)
			if err != nil {
				return // progen seeds that do not build are skipped on both sides
			}
			programs++
			a := f.Analysis
			fmt.Fprintf(h, "%d %d %d %d %d\n", a.Baseline.Size(), a.D1.Size(), a.R.Size(), a.D.Size(), a.RClasses)
			if !full {
				return
			}
			for _, p := range a.D.Pairs() {
				fmt.Fprintf(h, "%d,%d;", p.A, p.B)
			}
			for _, l := range levels {
				prog, err := f.Generate(context.Background(), Options{Procs: procs, Level: l, CSE: true}, nil)
				if err != nil {
					t.Fatalf("%s: generate at %s: %v", name, l, err)
				}
				fmt.Fprintf(h, "\n%s\n%s", l, prog.TargetText())
				stats := prog.Codegen.Map()
				keys := make([]string, 0, len(stats))
				for k := range stats {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					fmt.Fprintf(h, "%s=%d ", k, stats[k])
				}
			}
		})
		t.Logf("%-12s %4d programs  %x", name, programs, h.Sum(nil))
	}

	family("kernels", func(yield func(string, int, bool)) {
		for _, k := range apps.All() {
			for _, procs := range []int{4, 64} {
				yield(k.Source(procs, 1), procs, true)
			}
		}
	})
	for _, g := range []struct {
		name string
		opts progen.Options
	}{
		{"progen-p8", progen.Options{Procs: 8}},
		{"progen-p2", progen.Options{Procs: 2}},
		{"progen-big16", progen.BigProc(16)},
	} {
		family(g.name, func(yield func(string, int, bool)) {
			for seed := int64(0); seed < 300; seed++ {
				yield(progen.Generate(seed, g.opts), g.opts.Procs, true)
			}
		})
	}
	tiers := []string{"acc2048"}
	if os.Getenv("PSC_SCALE_TIERS") != "" {
		tiers = append(tiers, "acc8192", "acc32768")
	}
	for _, name := range tiers {
		tier, _ := progen.FindScaleTier(name)
		family(name, func(yield func(string, int, bool)) {
			yield(progen.Generate(tier.Seed, tier.Opts), tier.Opts.Procs, name == "acc2048")
		})
	}
}
