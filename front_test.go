package splitc

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/delay"
	"repro/internal/diag"
	"repro/internal/pass"
	"repro/internal/progen"
)

// frontShape is what generating code from a Front must leave alone: the
// shared IR's text and the sizes of the shared analysis' sets.
func frontShape(f *Front) string {
	a := f.Analysis
	return fmt.Sprintf("%s\n|Baseline|=%d |D1|=%d |R|=%d |D|=%d",
		f.Fn.String(), a.Baseline.Size(), a.D1.Size(), a.R.Size(), a.D.Size())
}

func passNames(stats []pass.Stat) []string {
	out := make([]string, len(stats))
	for i, st := range stats {
		out[i] = st.Name
	}
	return out
}

func diagStrings(ds []diag.Diagnostic) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.String()
	}
	return out
}

// sameProgram reports the first way a Program generated from a shared
// front differs from a separate compile of the same source and options:
// target text, codegen statistics, pass names and counters, diagnostics.
func sameProgram(got, want *Program) error {
	if got.TargetText() != want.TargetText() {
		return fmt.Errorf("target text differs from a separate compile\n--- front ---\n%s--- compile ---\n%s",
			got.TargetText(), want.TargetText())
	}
	if got.Codegen != want.Codegen {
		return fmt.Errorf("codegen stats %+v, separate compile %+v", got.Codegen, want.Codegen)
	}
	if g, w := passNames(got.Passes), passNames(want.Passes); !reflect.DeepEqual(g, w) {
		return fmt.Errorf("passes %v, separate compile %v", g, w)
	}
	for i, st := range got.Passes {
		if !reflect.DeepEqual(st.Counters, want.Passes[i].Counters) {
			return fmt.Errorf("pass %s counters %v, separate compile %v", st.Name, st.Counters, want.Passes[i].Counters)
		}
	}
	if g, w := diagStrings(got.Diags), diagStrings(want.Diags); !reflect.DeepEqual(g, w) {
		return fmt.Errorf("diagnostics %q, separate compile %q", g, w)
	}
	return nil
}

// optionGrid lists every level x CSE on/off x weakening: what one program is
// generated as.
func optionGrid(procs int, weakenings [][]delay.Pair) []Options {
	var out []Options
	for _, lvl := range Levels() {
		for _, cse := range []bool{false, true} {
			for _, weaken := range weakenings {
				out = append(out, Options{Procs: procs, Level: lvl, CSE: cse, Weaken: weaken})
			}
		}
	}
	return out
}

// checkFrontMatchesCompile generates every level x CSE on/off x weakening
// from ONE front, in sequence, and holds each Program to what a separate
// splitc.Compile of the same source and options returns; then it holds the
// front's shared state to what it was before any code was generated.
func checkFrontMatchesCompile(t *testing.T, name, src string, procs int, weakenings [][]delay.Pair) {
	t.Helper()
	ctx := context.Background()
	front, err := NewFront(ctx, src, Options{Procs: procs}, nil)
	if err != nil {
		t.Fatalf("%s: NewFront: %v", name, err)
	}
	before := frontShape(front)
	for _, opts := range optionGrid(procs, weakenings) {
		id := fmt.Sprintf("%s %s cse=%v weaken=%v", name, opts.Level, opts.CSE, opts.Weaken)
		got, err := front.Generate(ctx, opts, nil)
		if err != nil {
			t.Fatalf("%s: Generate: %v", id, err)
		}
		want, err := Compile(src, opts)
		if err != nil {
			t.Fatalf("%s: Compile: %v", id, err)
		}
		if err := sameProgram(got, want); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got.Fn != front.Fn || got.Analysis != front.Analysis {
			t.Fatalf("%s: Program does not share the front's Fn/Analysis", id)
		}
	}
	if after := frontShape(front); after != before {
		t.Fatalf("%s: code generation wrote to the shared front half\n--- before ---\n%s\n--- after ---\n%s", name, before, after)
	}
}

// TestFrontMatchesSeparateCompiles: a shared front half is only a
// saving. Kernels also generate with one delay pair weakened, the shape
// the verifier's negative suite compiles.
func TestFrontMatchesSeparateCompiles(t *testing.T) {
	for _, k := range apps.All() {
		src := k.Source(4, 1)
		p, err := Compile(src, Options{Procs: 4, Level: LevelPipelined})
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		pairs := p.Analysis.D.Pairs()
		if len(pairs) == 0 {
			t.Fatalf("%s: empty delay set, nothing to weaken", k.Name)
		}
		checkFrontMatchesCompile(t, k.Name, src, 4, [][]delay.Pair{nil, {pairs[len(pairs)/2]}})
	}
	seeds := int64(120)
	if testing.Short() {
		seeds = 20
	}
	for seed := int64(0); seed < seeds; seed++ {
		src := progen.Generate(seed, progen.Options{Procs: 2})
		checkFrontMatchesCompile(t, fmt.Sprintf("progen-%d", seed), src, 2, [][]delay.Pair{nil})
	}
}

// TestFrontRejectsOtherMachine: a front is for one (Procs, Exact).
func TestFrontRejectsOtherMachine(t *testing.T) {
	ctx := context.Background()
	front, err := NewFront(ctx, progen.Generate(3, progen.Options{Procs: 2}), Options{Procs: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := front.Generate(ctx, Options{Procs: 4}, nil); err == nil {
		t.Error("Generate for another machine size succeeded")
	}
	if _, err := front.Generate(ctx, Options{Procs: 2, Exact: true}, nil); err == nil {
		t.Error("Generate for another cycle search succeeded")
	}
}

// generateVariants is the option grid with two weakenings: none, and the
// middle pair of pairs.
func generateVariants(procs int, pairs []delay.Pair) []Options {
	weakenings := [][]delay.Pair{nil}
	if len(pairs) > 0 {
		weakenings = append(weakenings, []delay.Pair{pairs[len(pairs)/2]})
	}
	return optionGrid(procs, weakenings)
}

// TestFrontConcurrentGenerate: a Front is immutable, so one per program
// serves eight goroutines at once, each doing what a request against a
// shared front does — read the delay set's pairs to pick a weakening, then
// generate every variant, starting at its own offset so that at any moment
// the goroutines are at different variants. Each Program must equal a
// separate Compile, and the front must come out as it went in. Run under
// -race: while delay.Set remembered its decoded pairs, the first two readers
// of Pairs raced to fill the memo.
func TestFrontConcurrentGenerate(t *testing.T) {
	type program struct {
		name, src string
		procs     int
	}
	var progs []program
	for _, k := range apps.All() {
		progs = append(progs, program{k.Name, k.Source(16, 1), 16})
	}
	for seed := int64(0); seed < 20; seed++ {
		progs = append(progs, program{fmt.Sprintf("progen-%d", seed), progen.Generate(seed, progen.Options{Procs: 4}), 4})
	}
	if !testing.Short() {
		tier, _ := progen.FindScaleTier("acc2048")
		progs = append(progs, program{tier.Name, progen.Generate(tier.Seed, tier.Opts), tier.Opts.Procs})
	}

	ctx := context.Background()
	for _, p := range progs {
		// The references are separate compiles, and the weakening they
		// share is read off one of them: nothing touches the front between
		// NewFront and the goroutines but frontShape.
		first, err := Compile(p.src, Options{Procs: p.procs})
		if err != nil {
			t.Fatalf("%s: Compile: %v", p.name, err)
		}
		variants := generateVariants(p.procs, first.Analysis.D.Pairs())
		want := make([]*Program, len(variants))
		for i, opts := range variants {
			if want[i], err = Compile(p.src, opts); err != nil {
				t.Fatalf("%s %+v: Compile: %v", p.name, opts, err)
			}
		}
		front, err := NewFront(ctx, p.src, Options{Procs: p.procs}, nil)
		if err != nil {
			t.Fatalf("%s: NewFront: %v", p.name, err)
		}
		before := frontShape(front)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				mine := generateVariants(p.procs, front.Analysis.D.Pairs())
				if !reflect.DeepEqual(mine, variants) {
					t.Errorf("%s: the shared front's pairs give variants %+v, a separate compile's %+v", p.name, mine, variants)
					return
				}
				for k := range mine {
					i := (k + g*len(mine)/8) % len(mine)
					got, err := front.Generate(ctx, mine[i], nil)
					if err != nil {
						t.Errorf("%s %+v: Generate: %v", p.name, mine[i], err)
						return
					}
					if err := sameProgram(got, want[i]); err != nil {
						t.Errorf("%s %+v: %v", p.name, mine[i], err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if after := frontShape(front); after != before {
			t.Fatalf("%s: concurrent code generation wrote to the shared front half\n--- before ---\n%s\n--- after ---\n%s", p.name, before, after)
		}
	}
}
