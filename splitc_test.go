package splitc

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"repro/internal/diag"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/source"
)

const stencilSrc = `
shared float U[64];
shared float V[64];
func main() {
    local int nl = 64 / PROCS;
    local int base = MYPROC * nl;
    for (local int i = 0; i < 64 / PROCS; i = i + 1) {
        U[base + i] = itof(base + i);
    }
    barrier;
    for (local int i = 0; i < 64 / PROCS; i = i + 1) {
        local int g = base + i;
        V[g] = U[(g + 63) % 64] + U[(g + 1) % 64];
    }
    barrier;
}
`

func TestCompileLevels(t *testing.T) {
	for _, lvl := range []Level{LevelBlocking, LevelBaseline, LevelPipelined, LevelOneWay} {
		p, err := Compile(stencilSrc, Options{Procs: 8, Level: lvl})
		if err != nil {
			t.Fatalf("%s: %v", lvl, err)
		}
		if p.Target == nil || p.Analysis == nil {
			t.Fatalf("%s: missing outputs", lvl)
		}
	}
}

func TestLevelsAgreeOnResult(t *testing.T) {
	var want string
	for _, lvl := range []Level{LevelBlocking, LevelBaseline, LevelPipelined, LevelOneWay} {
		p := MustCompile(stencilSrc, Options{Procs: 8, Level: lvl, CSE: lvl == LevelOneWay})
		res, err := p.Run(machine.CM5(8), interp.RunOptions{Jitter: 1.5, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", lvl, err)
		}
		got := interp.FormatSnapshot(res.Memory)
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("%s produced different memory", lvl)
		}
	}
}

func TestOptimizationLaddersTime(t *testing.T) {
	times := map[Level]float64{}
	for _, lvl := range []Level{LevelBaseline, LevelPipelined, LevelOneWay} {
		p := MustCompile(stencilSrc, Options{Procs: 8, Level: lvl})
		res, err := p.Run(machine.CM5(8), interp.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		times[lvl] = res.Time
	}
	if !(times[LevelPipelined] < times[LevelBaseline]) {
		t.Errorf("pipelined (%.0f) should beat baseline (%.0f)",
			times[LevelPipelined], times[LevelBaseline])
	}
	if times[LevelOneWay] > times[LevelPipelined] {
		t.Errorf("one-way (%.0f) should not lose to pipelined (%.0f)",
			times[LevelOneWay], times[LevelPipelined])
	}
	t.Logf("baseline %.0f, pipelined %.0f, oneway %.0f",
		times[LevelBaseline], times[LevelPipelined], times[LevelOneWay])
}

func TestWeakMatchesSCOracle(t *testing.T) {
	p := MustCompile(stencilSrc, Options{Procs: 8, Level: LevelOneWay, CSE: true})
	sc, err := p.RunSC(11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(machine.T3D(8), interp.RunOptions{Jitter: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if interp.FormatSnapshot(res.Memory) != interp.FormatSnapshot(sc.Memory) {
		t.Error("weak execution diverged from the SC oracle")
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("not a program", Options{Procs: 2}); err == nil {
		t.Error("parse error expected")
	}
	if _, err := Compile("func main() { x = 1; }", Options{Procs: 2}); err == nil {
		t.Error("check error expected")
	}
	if _, err := Compile("func main() { }", Options{}); err == nil {
		t.Error("missing procs should fail")
	}
	if _, err := Compile("func main() { }", Options{Procs: 2, Level: Level(99)}); err == nil {
		t.Error("bad level should fail")
	}
}

// TestNestingLimitCompiles: the parser's bound on nesting is the only one a
// program meets. For both shapes that used to overflow the stack, the
// deepest program the parser accepts goes through every later recursion —
// sem, IR construction, folding, code generation — and simulates to the
// right answer; the next deeper one is a positioned parse diagnostic.
func TestNestingLimitCompiles(t *testing.T) {
	shapes := map[string]func(k int) string{
		"parens": func(k int) string {
			return "shared int X;\nfunc main() { X = " + strings.Repeat("(", k) + "MYPROC" + strings.Repeat(")", k) + " + 7; }"
		},
		"sum": func(k int) string {
			return "shared int X;\nfunc main() { X = MYPROC" + strings.Repeat("+1", k) + "; }"
		},
	}
	for name, src := range shapes {
		first := sort.Search(1<<16, func(k int) bool {
			_, err := source.Parse(src(k))
			return err != nil
		})
		if first == 1<<16 {
			t.Fatalf("%s: no depth up to %d is refused", name, first)
		}
		prog, err := Compile(src(first-1), Options{Procs: 1, Level: LevelOneWay, CSE: true})
		if err != nil {
			t.Fatalf("%s at depth %d, the deepest the parser accepts: %v", name, first-1, err)
		}
		res, err := prog.Run(machine.CM5(1), interp.RunOptions{})
		if err != nil {
			t.Fatalf("%s at depth %d: run: %v", name, first-1, err)
		}
		want := map[string]int64{"parens": 7, "sum": int64(first - 1)}[name]
		if got := res.Memory["X"][0].I; got != want {
			t.Errorf("%s at depth %d: X = %v, want %v", name, first-1, got, want)
		}
		_, err = Compile(src(first), Options{Procs: 1})
		var d *diag.Diagnostic
		if !errors.As(err, &d) || d.Pass != "parse" || !d.Pos.IsValid() || !strings.Contains(d.Msg, "nested too deeply") {
			t.Errorf("%s at depth %d: error %v, want a positioned parse diagnostic naming the nesting bound", name, first, err)
		}
	}
}

func TestRunProcsMismatch(t *testing.T) {
	p := MustCompile("func main() { }", Options{Procs: 4})
	if _, err := p.Run(machine.CM5(8), interp.RunOptions{}); err == nil {
		t.Error("mismatched machine size should fail")
	}
}

func TestIntrospection(t *testing.T) {
	p := MustCompile(stencilSrc, Options{Procs: 8, Level: LevelOneWay})
	if !strings.Contains(p.DelaySummary(), "final delays") {
		t.Error("DelaySummary missing content")
	}
	if !strings.Contains(p.TargetText(), "get_ctr") && !strings.Contains(p.TargetText(), "store") {
		t.Error("TargetText missing split-phase ops")
	}
	if !strings.Contains(p.Fn.String(), "barrier") {
		t.Error("IR text missing barrier")
	}
}

func TestLevelString(t *testing.T) {
	for _, lvl := range []Level{LevelBlocking, LevelBaseline, LevelPipelined, LevelOneWay, LevelUnsafe} {
		if strings.HasPrefix(lvl.String(), "Level(") {
			t.Errorf("level %d has no name", lvl)
		}
	}
	if Level(42).String() != "Level(42)" {
		t.Error("unknown level should render numerically")
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompile should panic")
		}
	}()
	MustCompile("bad", Options{Procs: 1})
}

func TestUnsafeLevelCompiles(t *testing.T) {
	p := MustCompile(stencilSrc, Options{Procs: 8, Level: LevelUnsafe})
	// Deterministic run (no jitter) still computes the right values here.
	res, err := p.Run(machine.Ideal(8), interp.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Time < 0 {
		t.Error("nonsense time")
	}
}
