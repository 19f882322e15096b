package interp_test

// Differential testing of the two block-execution engines: the bytecode
// VM (the default) against the AST-walking reference. The engines claim
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
	"reflect"
	"strings"
	"testing"

	splitc "repro"
	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/progen"
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

// runEngine executes prog once under the given engine, returning the
// result, the recorded tap stream (nil when tap is false), and the
// error's string ("" for success) so failing programs also compare.
func runEngine(prog *splitc.Program, cfg machine.Config, opts interp.RunOptions, eng interp.Engine, tap bool) (*interp.Result, []string, string) {
	opts.Engine = eng
	var tr *traceTap
	if tap {
		tr = &traceTap{}
		opts.Tap = tr
	}
	res, err := prog.Run(cfg, opts)
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
		vmRes, vmTap, vmErr := runEngine(prog, cfg, opts, interp.EngineVM, tapped)
		wkRes, wkTap, wkErr := runEngine(prog, cfg, opts, interp.EngineWalker, tapped)
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
// the two extreme optimization levels.
func TestEnginesDiffApps(t *testing.T) {
	for _, k := range apps.All() {
		for _, level := range []splitc.Level{splitc.LevelBlocking, splitc.LevelOneWay} {
			src := k.Source(8, 1)
			diffProgram(t, fmt.Sprintf("%s/%s", k.Name, level), src, 8, level, true)
		}
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
