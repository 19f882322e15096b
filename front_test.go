package splitc

import (
	"context"
	"fmt"
	"reflect"
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
	for _, lvl := range Levels() {
		for _, cse := range []bool{false, true} {
			for _, weaken := range weakenings {
				opts := Options{Procs: procs, Level: lvl, CSE: cse, Weaken: weaken}
				got, err := front.Generate(ctx, opts, nil)
				if err != nil {
					t.Fatalf("%s %s cse=%v weaken=%v: Generate: %v", name, lvl, cse, weaken, err)
				}
				want, err := Compile(src, opts)
				if err != nil {
					t.Fatalf("%s %s cse=%v weaken=%v: Compile: %v", name, lvl, cse, weaken, err)
				}
				id := fmt.Sprintf("%s %s cse=%v weaken=%v", name, lvl, cse, weaken)
				if got.TargetText() != want.TargetText() {
					t.Fatalf("%s: target text differs from a separate compile\n--- front ---\n%s--- compile ---\n%s",
						id, got.TargetText(), want.TargetText())
				}
				if got.Codegen != want.Codegen {
					t.Fatalf("%s: codegen stats %+v, separate compile %+v", id, got.Codegen, want.Codegen)
				}
				if g, w := passNames(got.Passes), passNames(want.Passes); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: passes %v, separate compile %v", id, g, w)
				}
				for i, st := range got.Passes {
					if !reflect.DeepEqual(st.Counters, want.Passes[i].Counters) {
						t.Fatalf("%s: pass %s counters %v, separate compile %v", id, st.Name, st.Counters, want.Passes[i].Counters)
					}
				}
				if g, w := diagStrings(got.Diags), diagStrings(want.Diags); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: diagnostics %q, separate compile %q", id, g, w)
				}
				if got.Fn != front.Fn || got.Analysis != front.Analysis {
					t.Fatalf("%s: Program does not share the front's Fn/Analysis", id)
				}
			}
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
