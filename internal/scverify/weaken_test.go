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
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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
// from the start, and between runs when it expires under way: each level
// looks at the context before every run of its own, so at most the one run
// a level was in when the signal came is finished after it.
func TestVerifyContextCanceled(t *testing.T) {
	src := apps.EM3D().Source(4, 1)
	opts := Options{Procs: 4, Deterministic: true, Schedules: Schedules(400)}
	levels := 3 // the default

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := VerifyContext(ctx, src, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled from the start: err = %v, want one wrapping context.Canceled", err)
	}

	// Cancel from inside the verdict: Validate runs once per run, so the
	// verdict is in its schedule loops when the context goes.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var runs atomic.Int64
	opts.Validate = func(map[string][]ir.Value) error {
		if runs.Add(1) == 5 {
			cancel()
		}
		return nil
	}
	_, err := VerifyContext(ctx, src, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled under way: err = %v, want one wrapping context.Canceled", err)
	}
	// The canceling run's own level stops at once; each of the others may
	// have a run under way.
	if n := runs.Load(); n < 5 || n > 5+int64(levels-1) {
		t.Fatalf("verdict made %d runs after the context was canceled at run 5, want at most one per other level (%d)", n-5, levels-1)
	}
}

// TestVerifyDeadlineReachesEnumerator: the merge waits for the SC
// enumeration, so the enumeration has to honor the verdict's deadline. The
// program's outcome set takes millions of states — seconds, and the whole
// default EnumBudget — to fail to enumerate; under a 1 ms deadline the
// verdict is back within 100 ms.
func TestVerifyDeadlineReachesEnumerator(t *testing.T) {
	const src = `
shared int S;
shared int T;
func main() {
    for (local int i = 0; i < 6; i = i + 1) {
        S = S + 1;
        T = T + S;
    }
}
`
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := VerifyContext(ctx, src, Options{Procs: 2})
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("verdict returned %v after a 1 ms deadline, want within 100 ms", took)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want one wrapping context.DeadlineExceeded", err)
	}
}

// TestVerifyLevelPanicReraised: a panic on a level's goroutine — here in
// the caller's Validate — comes out of VerifyContext as a panic on the
// caller's goroutine, where the caller (pscd's pool worker) can contain
// it; the value carries the original text and the stack of the goroutine
// that raised it. The next verdict is unaffected.
func TestVerifyLevelPanicReraised(t *testing.T) {
	c := mixApps()[1]
	boom := c.opts
	boom.Validate = func(map[string][]ir.Value) error { panic("oracle exploded") }

	var recovered any
	func() {
		defer func() { recovered = recover() }()
		rep, err := Verify(c.src, boom)
		t.Errorf("Verify returned (%v, %v), want a panic", rep, err)
	}()
	if recovered == nil {
		t.Fatal("no panic reached the caller")
	}
	err, ok := recovered.(error)
	if !ok {
		t.Fatalf("panic value is a %T, want an error", recovered)
	}
	for _, want := range []string{"oracle exploded", "TestVerifyLevelPanicReraised", "scverify.runLevel"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("panic value lacks %q:\n%v", want, err)
		}
	}

	rep, verr := Verify(c.src, c.opts)
	if verr != nil || !rep.OK() {
		t.Fatalf("the verdict after the panic: err %v, report\n%v", verr, rep)
	}
}

// reportText renders everything a Report holds — the oracle and its
// statistics, per level the counts (Summary), then every violation and
// outcome error in level order — so two can be compared and a difference
// read.
func reportText(rep *Report) string {
	enum := "none"
	if rep.Enum != nil {
		enum = fmt.Sprintf("%+v", *rep.Enum)
	}
	return fmt.Sprintf("exact=%v enum=%s\n%s%s", rep.ExactOracle, enum, rep.Summary(), dumpViolations(rep))
}

// TestVerifySameReportAtEveryWidth: a verdict's levels run on goroutines
// of their own, and none of that may show in the Report. Over the
// verify-mix shapes the whole Report is the same at GOMAXPROCS 1, 2 and 4,
// and is the reports of one-level verdicts — which have nothing to run
// next to but the reference — put end to end.
func TestVerifySameReportAtEveryWidth(t *testing.T) {
	racy := mixRacy(t)
	if testing.Short() {
		racy = racy[:8]
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, group := range [][]mixCase{mixApps(), mixWeakened(), racy} {
		for _, c := range group {
			var whole [3]*Report
			for i, width := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(width)
				rep, err := Verify(c.src, c.opts)
				if err != nil {
					t.Fatalf("%s at GOMAXPROCS %d: %v", c.name, width, err)
				}
				whole[i] = rep
			}
			joined := &Report{}
			for _, lr := range whole[0].Levels {
				one := c.opts
				one.Levels = []splitc.Level{lr.Level}
				rep, err := Verify(c.src, one)
				if err != nil {
					t.Fatalf("%s %s: %v", c.name, lr.Level, err)
				}
				joined.ExactOracle, joined.Enum = rep.ExactOracle, rep.Enum
				joined.Levels = append(joined.Levels, rep.Levels...)
			}
			want := reportText(joined)
			for i, width := range []int{1, 2, 4} {
				if got := reportText(whole[i]); got != want {
					t.Errorf("%s at GOMAXPROCS %d: report differs from the one-level verdicts joined\ngot:\n%swant:\n%s", c.name, width, got, want)
				}
			}
		}
	}
}

// TestHeavyJitterCatchesWritePost holds the schedule generator to what the
// negative suite needs of it. mp-write-post is the one seeded weakening
// whose window only opens when a data message outruns a two-hop
// notification, about one heavily jittered schedule in thirty; the
// benchmark and the suite look for it in seeds 0…199. Ten such sets of
// 200: every one flags it at least twice, the benchmark's own at least
// three times, and the ten together 50 times or more — a generator that
// thins the catches, or leaves them to luck in the set that is used, fails
// here and not as a flaky verdict.
func TestHeavyJitterCatchesWritePost(t *testing.T) {
	tc := negSuite()[1]
	if tc.name != "mp-write-post" {
		t.Fatalf("negSuite()[1] is %s, want mp-write-post", tc.name)
	}
	total := 0
	var counts []int
	for k := 0; k < 10; k++ {
		sched := heavyJitter(200)
		for i := range sched {
			sched[i].Seed += int64(200 * k)
		}
		rep, err := Verify(tc.src, Options{Procs: 2, Levels: []splitc.Level{tc.level}, Weaken: tc.weaken, Schedules: sched})
		if err != nil {
			t.Fatal(err)
		}
		n := len(rep.Levels[0].Violations)
		atLeast := 2
		if k == 0 {
			atLeast = 3
		}
		if n < atLeast {
			t.Errorf("seeds %d…%d: %d schedules flag mp-write-post, want at least %d", 200*k, 200*k+199, n, atLeast)
		}
		counts = append(counts, n)
		total += n
	}
	t.Logf("catches per set of 200: %v, %d in all", counts, total)
	if total < 50 {
		t.Errorf("%d of 2000 heavily jittered schedules flag mp-write-post, want 50 or more", total)
	}
}
