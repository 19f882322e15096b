package pass

import (
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/delay"
	"repro/internal/diag"
)

const ringSrc = `
shared int Trace[8];
event tok[8];
func main() {
    if (MYPROC > 0) { wait(tok[MYPROC]); }
    Trace[MYPROC] = MYPROC * 10 + 1;
    if (MYPROC < PROCS - 1) { post(tok[MYPROC + 1]); }
}
`

func fullConfig() Config {
	return Config{Procs: 8, Codegen: codegen.Options{Pipeline: true, Hoist: true, OneWay: true, CSE: true}}
}

// TestRegistryComplete: the full configuration plans every pass once, and
// every other plan is that sequence with steps left out — never reordered.
func TestRegistryComplete(t *testing.T) {
	full := PlanNames(fullConfig())
	if n := len(passes) + len(codegen.Steps()); len(full) != n {
		t.Fatalf("full plan has %d passes, %d are defined", len(full), n)
	}
	seen := make(map[string]bool)
	for _, name := range full {
		if seen[name] {
			t.Errorf("duplicate pass name %q", name)
		}
		seen[name] = true
	}
	for _, cg := range []codegen.Options{{}, {Pipeline: true}, {CSE: true}, {Hoist: true}, {OneWay: true}} {
		cfg := Config{Codegen: cg}
		k := 0
		for _, name := range PlanNames(cfg) {
			for k < len(full) && full[k] != name {
				k++
			}
			if k == len(full) {
				t.Errorf("PlanNames(%+v) = %v is not a subsequence of the full plan %v", cfg, PlanNames(cfg), full)
				break
			}
			k++
		}
	}
}

func TestPipelineRunsAndCounts(t *testing.T) {
	cfg := fullConfig()
	ctx := NewContext(ringSrc, cfg)
	var order []string
	pl := &Pipeline{
		MeasureAllocs: true,
		Observer:      func(p Pass, _ *Context) { order = append(order, p.Name()) },
	}
	stats, err := pl.Run(ctx, Plan(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Prog() == nil {
		t.Fatal("no target program after full pipeline")
	}
	want := PlanNames(cfg)
	if len(order) != len(want) {
		t.Fatalf("observer fired %d times, want %d", len(order), len(want))
	}
	byName := make(map[string]Stat)
	for i, st := range stats {
		if st.Name != want[i] {
			t.Errorf("stats[%d] = %s, want %s", i, st.Name, want[i])
		}
		byName[st.Name] = st
	}
	if byName["build-ir"].Counters["accesses"] == 0 {
		t.Error("build-ir reported no accesses")
	}
	if byName["cycle-detect"].Counters["d1_delays"] == 0 {
		t.Error("cycle-detect reported no D1 delays")
	}
	if byName["insert-syncs"].Counters["stores"] == 0 {
		t.Error("one-way ring should end with stores")
	}
	if byName["parse"].Allocs == 0 {
		t.Error("MeasureAllocs left parse allocs at 0")
	}
	if ctx.Analysis.Timing.Total() <= 0 {
		t.Error("analysis sub-phase timing not populated")
	}
}

func TestUnsafeCompileWarns(t *testing.T) {
	cfg := fullConfig()
	cfg.Delays = DelayNone
	ctx := NewContext(ringSrc, cfg)
	if _, err := new(Pipeline).Run(ctx, Plan(cfg)); err != nil {
		t.Fatal(err)
	}
	warns := ctx.Diags.BySeverity(diag.Warning)
	if len(warns) == 0 {
		t.Fatal("empty delay set should warn")
	}
	if warns[0].Pass != "split-phase" {
		t.Errorf("warning attributed to %q, want split-phase", warns[0].Pass)
	}
}

// TestExactAboveLimitWarns: asking for the exact search on a program past
// delay.ExactLimit gets the polynomial search and a warning saying so; at or
// below the limit the search is exact and silent.
func TestExactAboveLimitWarns(t *testing.T) {
	var big strings.Builder
	big.WriteString("shared int X[8];\nfunc main() {\n")
	for i := 0; i <= delay.ExactLimit; i++ {
		big.WriteString("    X[MYPROC] = 1;\n")
	}
	big.WriteString("}\n")
	for _, c := range []struct {
		src  string
		warn bool
	}{{ringSrc, false}, {big.String(), true}} {
		cfg := fullConfig()
		cfg.Exact = true
		ctx := NewContext(c.src, cfg)
		if _, err := new(Pipeline).Run(ctx, Plan(cfg)); err != nil {
			t.Fatal(err)
		}
		n := len(ctx.Fn.Accesses)
		if (n > delay.ExactLimit) != c.warn {
			t.Fatalf("test program has %d accesses, on the wrong side of the limit %d", n, delay.ExactLimit)
		}
		warns := ctx.Diags.BySeverity(diag.Warning)
		if !c.warn {
			if len(warns) != 0 {
				t.Errorf("n = %d: unexpected warnings %v", n, warns)
			}
			continue
		}
		if len(warns) != 1 || warns[0].Pass != "cycle-detect" ||
			!strings.Contains(warns[0].Msg, "exact search is bounded at 64 accesses; n = 65") {
			t.Errorf("n = %d: warnings %v, want one from cycle-detect naming the bound and n", n, warns)
		}
	}
}

func TestParseErrorIsStructured(t *testing.T) {
	ctx := NewContext("not a program", Config{Procs: 2})
	_, err := new(Pipeline).Run(ctx, Plan(Config{Procs: 2}))
	if err == nil {
		t.Fatal("parse error expected")
	}
	d, ok := err.(*diag.Diagnostic)
	if !ok {
		t.Fatalf("error is %T, want *diag.Diagnostic", err)
	}
	if d.Pass != "parse" || d.Sev != diag.Error {
		t.Errorf("diagnostic = %+v, want parse/error", d)
	}
	if !d.Pos.IsValid() {
		t.Error("parse diagnostic lost its source position")
	}
}
