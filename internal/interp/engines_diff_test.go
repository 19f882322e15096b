package interp_test

// Differential testing of the two block-execution engines: the bytecode
// VM, which every run outside the tests uses, against the AST-walking
// reference, selected through the Runner's SetWalker hook. The engines claim
// byte-identical semantics — same outcomes, same simulated clocks, same
// event and message counts, and the same tap callback stream in the same
// order — so every comparison here is exact equality, not tolerance.
//
// Each program runs twice per schedule: once with a recording tap
// attached (every get-read goes through the event queue — the path
// scverify depends on) and once tapless (on the deterministic schedule
// get-reads are then lazy: sampled on demand, never queued). The two
// engines are compared inside each mode; the modes are compared with each
// other in lazy_diff_test.go.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	splitc "repro"
	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/progen"
	"repro/internal/source"
	"repro/internal/vm"
)

// traceTap records the full tap callback stream as formatted lines, so
// two runs compare with a single slice equality.
type traceTap struct {
	lines []string
}

func (t *traceTap) Block(proc, blk int) {
	t.lines = append(t.lines, fmt.Sprintf("block p%d b%d", proc, blk))
}

func (t *traceTap) Issue(dyn, proc int, kind interp.OpKind, acc *ir.Access, idx int64, at float64) {
	site := "-"
	if acc != nil {
		site = acc.Site()
	}
	t.lines = append(t.lines, fmt.Sprintf("issue %d p%d %v %s [%d] @%g", dyn, proc, kind, site, idx, at))
}

func (t *traceTap) MemEffect(dyn int, write bool, val ir.Value, at float64) {
	t.lines = append(t.lines, fmt.Sprintf("mem %d write=%v %v @%g", dyn, write, val, at))
}

func (t *traceTap) Observe(dyn, from int) {
	t.lines = append(t.lines, fmt.Sprintf("observe %d from %d", dyn, from))
}

func (t *traceTap) Episode(dyn, ep int) {
	t.lines = append(t.lines, fmt.Sprintf("episode %d ep %d", dyn, ep))
}

// runEngine executes prog once on a fresh Runner, on the AST walker or the
// bytecode VM, returning the result, the recorded tap stream (nil when tap
// is false), and the error's string ("" for success) so failing programs
// also compare.
func runEngine(prog *splitc.Program, cfg machine.Config, opts interp.RunOptions, walker, tap bool) (*interp.Result, []string, string) {
	var tr *traceTap
	if tap {
		tr = &traceTap{}
		opts.Tap = tr
	}
	var res *interp.Result
	r, err := interp.NewRunner(prog.Target, cfg)
	if err == nil {
		r.SetWalker(walker)
		res, err = r.Run(opts)
	}
	errStr := ""
	if err != nil {
		errStr = err.Error()
	}
	var lines []string
	if tr != nil {
		lines = tr.lines
	}
	return res, lines, errStr
}

// diffRun runs prog under both engines (tapped and tapless) and fails on
// the first observable divergence.
func diffRun(t *testing.T, label string, prog *splitc.Program, cfg machine.Config, opts interp.RunOptions) {
	t.Helper()
	for _, tapped := range []bool{true, false} {
		vmRes, vmTap, vmErr := runEngine(prog, cfg, opts, false, tapped)
		wkRes, wkTap, wkErr := runEngine(prog, cfg, opts, true, tapped)
		mode := "tapless"
		if tapped {
			mode = "tapped"
		}
		if vmErr != wkErr {
			t.Fatalf("%s (%s): error divergence:\nvm:   %q\nwalk: %q", label, mode, vmErr, wkErr)
		}
		if vmErr != "" {
			continue // both failed identically; nothing further to compare
		}
		sameResult(t, fmt.Sprintf("%s (%s)", label, mode), "vm", vmRes, "walk", wkRes)
		if tapped && !reflect.DeepEqual(vmTap, wkTap) {
			t.Fatalf("%s (%s): tap stream divergence at line %d:\nvm:   %s\nwalk: %s",
				label, mode, firstDiff(vmTap, wkTap), pick(vmTap, firstDiff(vmTap, wkTap)), pick(wkTap, firstDiff(vmTap, wkTap)))
		}
	}
}

// sameResult fails unless two runs agree on every observable a Result
// carries: clocks, message and event counts, final memory and prints, and
// per-processor stats.
func sameResult(t *testing.T, label, an string, a *interp.Result, bn string, b *interp.Result) {
	t.Helper()
	if a.Time != b.Time || a.Messages != b.Messages || a.Events != b.Events {
		t.Fatalf("%s: clock divergence: %s (t=%v msgs=%d ev=%d) %s (t=%v msgs=%d ev=%d)",
			label, an, a.Time, a.Messages, a.Events, bn, b.Time, b.Messages, b.Events)
	}
	if ak, bk := interp.OutcomeKey(a.Memory, a.Prints), interp.OutcomeKey(b.Memory, b.Prints); ak != bk {
		t.Fatalf("%s: outcome divergence:\n%s: %s\n%s: %s", label, an, ak, bn, bk)
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Fatalf("%s: per-processor stats diverge:\n%s: %+v\n%s: %+v", label, an, a.Stats, bn, b.Stats)
	}
}

func firstDiff(a, b []string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) < len(b) {
		return len(a)
	}
	return len(b)
}

func pick(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<stream ended>"
}

// diffSchedules is the schedule grid every differential program runs
// under: the deterministic schedule, a jittered one, and a jittered
// perturbed one (racing same-instant events).
var diffSchedules = []interp.RunOptions{
	{},
	{Jitter: 2, Seed: 7},
	{Jitter: 5, Seed: 3, Perturb: true},
}

// diffProgram compiles src at the given level and runs the full schedule
// grid under both engines.
func diffProgram(t *testing.T, label, src string, procs int, level splitc.Level, cse bool) {
	t.Helper()
	prog, err := splitc.Compile(src, splitc.Options{Procs: procs, Level: level, CSE: cse})
	if err != nil {
		t.Fatalf("%s: compile: %v", label, err)
	}
	cfg := machine.CM5(procs)
	for i, opts := range diffSchedules {
		diffRun(t, fmt.Sprintf("%s/sched%d", label, i), prog, cfg, opts)
	}
}

// TestEnginesDiffApps runs the five paper kernels under both engines at
// the two extreme optimization levels on 8 processors, and at the
// pipelined level on 4 without communication elimination, the compile the
// SC verifier's app grid makes.
func TestEnginesDiffApps(t *testing.T) {
	for _, k := range apps.All() {
		for _, c := range []struct {
			procs int
			level splitc.Level
			cse   bool
		}{
			{8, splitc.LevelBlocking, true},
			{8, splitc.LevelOneWay, true},
			{4, splitc.LevelPipelined, false},
		} {
			src := k.Source(c.procs, 1)
			diffProgram(t, fmt.Sprintf("%s/p%d/%s", k.Name, c.procs, c.level), src, c.procs, c.level, c.cse)
		}
	}
}

// TestEnginesDiffSamples runs every sample program of testdata/ under both
// engines at pscsim's defaults: 8 processors at the oneway level, with
// communication elimination off and on.
func TestEnginesDiffSamples(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.ms")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sample programs found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, cse := range []bool{false, true} {
			diffProgram(t, fmt.Sprintf("%s/cse=%v", filepath.Base(f), cse), string(src), 8, splitc.LevelOneWay, cse)
		}
	}
}

// TestWalkerHookBuildsNoVM holds SetWalker to what every engine
// differential relies on: a Runner whose runs were all on the walker has
// never built the bytecode machine, so the walker side of a comparison
// really ran the walker. The same Runner builds it at its first VM run.
func TestWalkerHookBuildsNoVM(t *testing.T) {
	prog, err := splitc.Compile(apps.ByName("EM3D").Source(4, 1), splitc.Options{Procs: 4, Level: splitc.LevelOneWay})
	if err != nil {
		t.Fatal(err)
	}
	r, err := interp.NewRunner(prog.Target, machine.CM5(4))
	if err != nil {
		t.Fatal(err)
	}
	r.SetWalker(true)
	for _, opts := range []interp.RunOptions{{}, {Tap: &traceTap{}}} {
		if _, err := r.Run(opts); err != nil {
			t.Fatal(err)
		}
	}
	if r.MadeVM() {
		t.Fatal("a Runner set to the walker built the bytecode machine")
	}
	r.SetWalker(false)
	if _, err := r.Run(interp.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if !r.MadeVM() {
		t.Fatal("a run on the VM did not build the bytecode machine")
	}
}

// TestEnginesDiffHandwritten covers the racy sync idioms from the enum
// differential suite — programs whose observable behavior is exactly the
// races the engines must resolve identically.
func TestEnginesDiffHandwritten(t *testing.T) {
	for _, tc := range diffSrcs {
		diffProgram(t, tc.name, tc.src, 2, splitc.LevelOneWay, false)
	}
}

// TestEnginesDiffProgen sweeps 150 generated programs across generator
// shapes: the default racy mix at 2 and 4 processors and the big-proc
// shape (no events or locks, wider machine).
func TestEnginesDiffProgen(t *testing.T) {
	if testing.Short() {
		t.Skip("progen grid skipped in -short mode")
	}
	grids := []struct {
		name  string
		n     int64
		popts progen.Options
	}{
		{"p2", 60, progen.Options{Procs: 2}},
		{"p4", 60, progen.Options{Procs: 4}},
		{"bigproc16", 30, progen.BigProc(16)},
	}
	for _, g := range grids {
		for seed := int64(0); seed < g.n; seed++ {
			src := progen.Generate(seed, g.popts)
			diffProgram(t, fmt.Sprintf("%s/seed%d", g.name, seed), src, g.popts.Procs, splitc.LevelOneWay, seed%2 == 0)
		}
	}
}

// TestEnginesDiffBigProc is the scaled equivalence check: EM3D on 256
// simulated processors, both engines, exact clock and outcome equality.
// (BenchmarkVMBigProc measures the same configuration's cost, and EM3D at
// 1024.)
func TestEnginesDiffBigProc(t *testing.T) {
	if testing.Short() {
		t.Skip("big-proc diff skipped in -short mode")
	}
	k := apps.ByName("EM3D")
	src := k.Source(256, 1)
	prog, err := splitc.Compile(src, splitc.Options{Procs: 256, Level: splitc.LevelOneWay})
	if err != nil {
		t.Fatal(err)
	}
	diffRun(t, "EM3D/procs=256", prog, machine.CM5(256), interp.RunOptions{})
}

// FuzzVMEquivalence fuzzes the engine pair: any generated program, any
// schedule, both engines must agree on every observable. The seed corpus
// pins the schedule shapes the table tests use.
func FuzzVMEquivalence(f *testing.F) {
	f.Add(int64(0), int64(0), uint8(0), false, uint8(2))
	f.Add(int64(11), int64(7), uint8(20), true, uint8(3))
	f.Add(int64(42), int64(3), uint8(50), true, uint8(4))
	f.Fuzz(func(t *testing.T, progSeed, schedSeed int64, jitterTenths uint8, perturb bool, procs uint8) {
		p := int(procs)
		if p < 2 {
			p = 2
		}
		if p > 8 {
			p = 8
		}
		src := progen.Generate(progSeed, progen.Options{Procs: p})
		prog, err := splitc.Compile(src, splitc.Options{Procs: p, Level: splitc.LevelOneWay, CSE: true})
		if err != nil {
			t.Skipf("compile: %v", err)
		}
		opts := interp.RunOptions{
			Jitter:  float64(jitterTenths) / 10,
			Seed:    schedSeed,
			Perturb: perturb,
		}
		diffRun(t, strings.TrimSpace(fmt.Sprintf("progen seed %d", progSeed)), prog, machine.CM5(p), opts)
	})
}

// TestEnginesDiffFusedFailures holds the failure paths of the fused ops to
// the walker's: each program fails inside one (the disassembly must show
// it), and both engines must report the same error text from the same
// processor (DESIGN §12's contract covers error strings). A fused op checks
// in the unfused sequence's order — a store's index before its value is
// read, a chained pair's first operator before its second.
func TestEnginesDiffFusedFailures(t *testing.T) {
	const head = `
shared int S[2];
func main() {
	local int i = MYPROC + 3;
	local int v = 2;
	local int buf[4];
	local int idx[2];
`
	cases := []struct {
		name, body, op, want string
		floatIdx             bool // retype idx to float
	}{
		{"setelem.x range", "buf[i + 1] = v;", "setelem.x", "local array index 4 out of range [0,4)", false},
		{"setelem.ll range", "i = i + 2; buf[i] = v;", "setelem.ll", "local array index 5 out of range [0,4)", false},
		{"setelem.x float index", "buf[idx[0]] = v;", "setelem.x", "index is not an integer", true},
		{"setelem.ll float index", "local int k = idx[1]; buf[k] = v;", "setelem.ll", "index is not an integer", true},
		{"br.lc mod zero", "if (i % 0) { v = 1; }", "br.lc", "division by zero", false},
		{"br.lc div zero", "while (i / 0) { v = 1; }", "br.lc", "division by zero", false},
		{"bin2.lcl mod zero", "S[MYPROC] = i % 0 + v;", "bin2.lcl", "division by zero", false},
		{"bin2.lcl div zero", "v = i / 0 - v;", "bin2.lcl", "division by zero", false},
		{"get.tc mod zero", "v = S[(i + v) % 0];", "get.tc", "division by zero", false},
		{"get.tc float index", "v = S[idx[0] + 2];", "get.tc", "index is not an integer", true},
	}
	cfg := machine.CM5(2)
	for _, c := range cases {
		prog, err := splitc.Compile(head+"\t"+c.body+"\n\tS[MYPROC] = v;\n}\n", splitc.Options{Procs: 2, Level: splitc.LevelOneWay})
		if err != nil {
			t.Fatalf("%s: compile: %v", c.name, err)
		}
		// MiniSplit has no float index (sem rejects one), so the float
		// cases make one at run time: idx is never written, so once
		// retyped to float its elements start as float zeros.
		if c.floatIdx {
			for _, l := range prog.Fn.Locals {
				if strings.HasPrefix(l.Name, "idx") {
					l.Type = source.TypeFloat
				}
			}
		}
		bc, err := vm.Compile(prog.Target)
		if err != nil {
			t.Fatal(err)
		}
		if dis := bc.Disasm(); !strings.Contains(dis, "  "+c.op+" ") {
			t.Fatalf("%s: no %s op in the bytecode:\n%s", c.name, c.op, dis)
		}
		if _, _, vmErr := runEngine(prog, cfg, interp.RunOptions{}, false, false); !strings.Contains(vmErr, c.want) {
			t.Fatalf("%s: VM error %q, want one saying %q", c.name, vmErr, c.want)
		}
		for i, opts := range diffSchedules {
			diffRun(t, fmt.Sprintf("%s/sched%d", c.name, i), prog, cfg, opts)
		}
	}
}

// TestLandingsApplyInKeyOrder: a resume applies exactly the landings keyed
// before it, whatever order their gets issued in. Each processor issues a
// remote get, then a local one on another counter, and syncs the local one
// first: at that resume the later-issued landing is due and the earlier
// one is not, so a resume that applied landings in issue order, stopping
// at the first one not due, would print b before it lands. Both engines,
// with get-reads lazy (tapless) and queued (tapped).
func TestLandingsApplyInKeyOrder(t *testing.T) {
	prog, err := splitc.Compile(`
shared int X[2];
func main() {
	X[MYPROC] = MYPROC + 5;
	barrier;
	local int a = X[1 - MYPROC];
	local int b = X[MYPROC];
	print("b", b);
	print("a", a);
}
`, splitc.Options{Procs: 2, Level: splitc.LevelPipelined})
	if err != nil {
		t.Fatal(err)
	}
	want := "[[p0] b 5 [p0] a 6 [p1] b 6 [p1] a 5]"
	for _, walker := range []bool{false, true} {
		for _, tapped := range []bool{false, true} {
			res, _, errStr := runEngine(prog, machine.CM5(2), interp.RunOptions{}, walker, tapped)
			if errStr != "" {
				t.Fatal(errStr)
			}
			if got := fmt.Sprint(res.Prints); got != want {
				t.Errorf("walker %v, tapped %v: prints %s, want %s\n%s", walker, tapped, got, want, prog.TargetText())
			}
		}
	}
}
