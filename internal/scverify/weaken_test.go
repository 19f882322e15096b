package scverify

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	splitc "repro"
	"repro/internal/apps"
	"repro/internal/delay"
	"repro/internal/ir"
	"repro/internal/progen"
)

// weakeningsBySeparateCompiles is the definition EffectiveWeakenings must
// agree with, computed the plain way: the unweakened program and one
// program per delay pair, each compiled from the source text.
func weakeningsBySeparateCompiles(t *testing.T, src string, procs int, level splitc.Level) []delay.Pair {
	t.Helper()
	base, err := splitc.Compile(src, splitc.Options{Procs: procs, Level: level})
	if err != nil {
		t.Fatal(err)
	}
	var out []delay.Pair
	for _, p := range base.Analysis.D.Pairs() {
		weak, err := splitc.Compile(src, splitc.Options{Procs: procs, Level: level, Weaken: []delay.Pair{p}})
		if err != nil {
			t.Fatal(err)
		}
		if weak.TargetText() != base.TargetText() {
			out = append(out, p)
		}
	}
	return out
}

// exampleProgram is one MiniSplit program the repository ships.
type exampleProgram struct {
	name  string
	src   string
	procs int
}

// embeddedSource returns the value of the `const src` string an example's
// main.go embeds its program in.
func embeddedSource(t *testing.T, path string) string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if len(vs.Names) == 1 && vs.Names[0].Name == "src" && len(vs.Values) == 1 {
				if lit, ok := vs.Values[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					s, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					return s
				}
			}
		}
	}
	t.Fatalf("%s: no `const src` string", path)
	return ""
}

// examplePrograms lists every program under examples/ — the two embedded
// ones, and the kernels examples/cholesky and examples/stencil build, at
// their machine sizes — and the sample programs under testdata/.
func examplePrograms(t *testing.T) []exampleProgram {
	t.Helper()
	root := filepath.Join("..", "..")
	out := []exampleProgram{
		{"examples/flagdata", embeddedSource(t, filepath.Join(root, "examples", "flagdata", "main.go")), 2},
		{"examples/quickstart", embeddedSource(t, filepath.Join(root, "examples", "quickstart", "main.go")), 8},
		{"examples/cholesky", apps.Cholesky().Source(16, 2), 16},
		{"examples/stencil", apps.Ocean().Source(16, 2), 16},
	}
	samples, err := filepath.Glob(filepath.Join(root, "testdata", "*.ms"))
	if err != nil || len(samples) == 0 {
		t.Fatalf("no sample programs under testdata/ (%v)", err)
	}
	for _, path := range samples {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, exampleProgram{"testdata/" + filepath.Base(path), string(text), 8})
	}
	return out
}

// TestEffectiveWeakenings holds the shared-front EffectiveWeakenings to
// the separate-compiles definition on the shipped programs and on 20
// generated ones, at the two levels -list-delays is used at.
func TestEffectiveWeakenings(t *testing.T) {
	progs := examplePrograms(t)
	for seed := int64(0); seed < 20; seed++ {
		progs = append(progs, exampleProgram{fmt.Sprintf("progen-%d", seed), progen.Generate(seed, progen.Options{Procs: 2}), 2})
	}
	ctx := context.Background()
	effective := 0
	for _, p := range progs {
		front, err := splitc.NewFront(ctx, p.src, splitc.Options{Procs: p.procs}, nil)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		for _, lvl := range []splitc.Level{splitc.LevelPipelined, splitc.LevelOneWay} {
			got, err := EffectiveWeakenings(ctx, front, lvl)
			if err != nil {
				t.Fatalf("%s %s: %v", p.name, lvl, err)
			}
			want := weakeningsBySeparateCompiles(t, p.src, p.procs, lvl)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: effective weakenings %v, separate compiles give %v", p.name, lvl, got, want)
			}
			effective += len(got)
		}
	}
	if effective == 0 {
		t.Error("no program has an effective weakening: the test compares empty lists")
	}
}

// TestVerifyContextCanceled: a canceled context stops a verdict with an
// error that wraps the cause — before the front half when it is canceled
// from the start, and between runs when it expires under way.
func TestVerifyContextCanceled(t *testing.T) {
	src := apps.EM3D().Source(4, 1)
	opts := Options{Procs: 4, Deterministic: true, Schedules: Schedules(400)}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := VerifyContext(ctx, src, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled from the start: err = %v, want one wrapping context.Canceled", err)
	}

	// Cancel from inside the verdict: Validate runs once per run, so the
	// verdict is in its schedule loop when the context goes.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	runs := 0
	opts.Validate = func(map[string][]ir.Value) error {
		runs++
		if runs == 5 {
			cancel()
		}
		return nil
	}
	_, err := VerifyContext(ctx, src, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled under way: err = %v, want one wrapping context.Canceled", err)
	}
	if runs != 5 {
		t.Fatalf("verdict made %d runs after the context was canceled at run 5", runs-5)
	}
}
