package scverify

// Verify recycles three things across the runs of a verdict: the
// simulator state (interp.Runner), the trace buffers (Collector.Reset) and
// the happens-before graph (checker). These tests hold every recycled run
// to what a new interp.Runner, Collector and checker give on fresh
// state. (interp.Run is no reference: it reuses the runner parked on the
// program.)

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	splitc "repro"
	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/target"
)

// traceDiff reports how two traces differ, "" if they do not. A recycled
// collector has empty slices where a fresh one has nil ones; nothing that
// reads a Trace can tell the two apart.
func traceDiff(got, want *Trace) string {
	switch {
	case !slices.Equal(got.Ops, want.Ops):
		return fmt.Sprintf("Ops: %d ops, want %d (or contents differ)", len(got.Ops), len(want.Ops))
	case !slices.EqualFunc(got.ByProc, want.ByProc, func(a, b []int) bool { return slices.Equal(a, b) }):
		return fmt.Sprintf("ByProc: %v, want %v", got.ByProc, want.ByProc)
	case !slices.Equal(got.MemOrder, want.MemOrder):
		return fmt.Sprintf("MemOrder: %v, want %v", got.MemOrder, want.MemOrder)
	case !slices.Equal(got.Observes, want.Observes):
		return fmt.Sprintf("Observes: %v, want %v", got.Observes, want.Observes)
	case !slices.Equal(got.Episode, want.Episode):
		return fmt.Sprintf("Episode: %v, want %v", got.Episode, want.Episode)
	case got.Episodes != want.Episodes:
		return fmt.Sprintf("Episodes: %d, want %d", got.Episodes, want.Episodes)
	}
	return ""
}

func violationText(v *Violation) string {
	if v == nil {
		return "none"
	}
	return v.String()
}

// checkRecycledRun makes one run on the recycled runner and arena and the
// same run on fresh state, and fails on any difference. It returns the
// recycled run's violation.
func checkRecycledRun(t *testing.T, id string, a *arena, runner *interp.Runner, prog *target.Prog, cfg machine.Config, sch Schedule) *Violation {
	t.Helper()
	got, gotV, gotErr := a.runOne(sch, runner.Run)
	col := &Collector{}
	fresh, err := interp.NewRunner(prog, cfg)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	want, wantErr := fresh.Run(interp.RunOptions{
		Seed: sch.Seed, Jitter: sch.Jitter, Perturb: sch.Perturb, Tap: col,
	})
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v recycled, %v fresh", id, gotErr, wantErr)
	}
	if wantErr != nil {
		return nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result differs\nrecycled: %+v\nfresh:    %+v", id, got, want)
	}
	if d := traceDiff(a.col.Trace(), col.Trace()); d != "" {
		t.Fatalf("%s: recycled trace differs from a fresh collector's: %s", id, d)
	}
	wantV := new(checker).check(col.Trace())
	if wantV != nil {
		wantV.Schedule = sch
	}
	if g, w := violationText(gotV), violationText(wantV); g != w {
		t.Fatalf("%s: violation differs\nrecycled: %s\nfresh:    %s", id, g, w)
	}
	return gotV
}

// TestRecycledArenaMatchesFresh runs every program x level x schedule of
// the verify-mix shapes on ONE arena — so each program's runs follow
// another program's — and one runner per compiled program. The weakened
// cases come between the clean groups: runs that end in a violation are
// followed by clean ones, on the same arena and on the same runner.
func TestRecycledArenaMatchesFresh(t *testing.T) {
	ctx := context.Background()
	racy := mixRacy(t)
	if testing.Short() {
		racy = racy[:8]
	}
	var a arena
	flagged, clean := 0, 0
	for _, group := range [][]mixCase{mixApps(), mixWeakened(), racy} {
		for _, c := range group {
			front, err := splitc.NewFront(ctx, c.src, splitc.Options{Procs: c.opts.Procs}, nil)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			levels := c.opts.Levels
			if levels == nil {
				levels = []splitc.Level{splitc.LevelBlocking, splitc.LevelPipelined, splitc.LevelOneWay}
			}
			schedules := c.opts.Schedules
			if schedules == nil {
				schedules = Schedules(6)
			}
			cfg := machine.CM5(c.opts.Procs)
			for _, lvl := range levels {
				prog, err := front.Generate(ctx, splitc.Options{Procs: c.opts.Procs, Level: lvl, CSE: c.opts.CSE, Weaken: c.opts.Weaken}, nil)
				if err != nil {
					t.Fatalf("%s %s: %v", c.name, lvl, err)
				}
				runner, err := interp.NewRunner(prog.Target, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, sch := range schedules {
					id := fmt.Sprintf("%s %s %v", c.name, lvl, sch)
					if v := checkRecycledRun(t, id, &a, runner, prog.Target, cfg, sch); v != nil {
						flagged++
					} else {
						clean++
					}
				}
			}
		}
	}
	if flagged == 0 || clean == 0 {
		t.Fatalf("%d flagged and %d clean runs: the grid must hold both", flagged, clean)
	}
}

// TestRecycledArenaShrinks: a 256-processor kernel, then a 2-processor
// program, then the kernel again, on one arena. What the big trace left in
// the per-processor lists, the location table and the graph buffers must
// not show in the small one.
func TestRecycledArenaShrinks(t *testing.T) {
	if testing.Short() {
		t.Skip("256-processor compile skipped in -short mode")
	}
	big, err := splitc.Compile(apps.ByName("EM3D").Source(256, 1), splitc.Options{Procs: 256, Level: splitc.LevelOneWay})
	if err != nil {
		t.Fatal(err)
	}
	small, err := splitc.Compile(mpSrc, splitc.Options{Procs: 2, Level: splitc.LevelPipelined})
	if err != nil {
		t.Fatal(err)
	}
	var a arena
	for i, prog := range []*splitc.Program{big, small, big, small} {
		cfg := machine.CM5(prog.Opts.Procs)
		runner, err := interp.NewRunner(prog.Target, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, sch := range Schedules(3) {
			checkRecycledRun(t, fmt.Sprintf("program %d (%d procs) %v", i, cfg.Procs, sch), &a, runner, prog.Target, cfg, sch)
		}
	}
}

// TestRecycledArenaAfterFailedRun: a run that stops on a RuntimeError
// leaves half a trace in the collector; the next run on the same arena and
// runner must not see it.
func TestRecycledArenaAfterFailedRun(t *testing.T) {
	const src = `
shared int A[4];
shared int N on 0 = 0;
shared int M on 1 = 0;
func main() {
	local int v = 0;
	if (MYPROC == 1) {
		N = 7;
	} else {
		v = M;
		if (v == 0) {
			v = N;
			A[v] = 2;
		}
	}
}
`
	prog, err := splitc.Compile(src, splitc.Options{Procs: 2, Level: splitc.LevelPipelined})
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.CM5(2)
	runner, err := interp.NewRunner(prog.Target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Processor 0 indexes A by what it reads from N after a round trip to
	// processor 1: out of range exactly when processor 1's write of N won
	// the race against that round trip.
	var a arena
	failed, clean := 0, 0
	for _, sch := range heavyJitter(60) {
		_, _, err := a.runOne(sch, runner.Run)
		var rte *interp.RuntimeError
		switch {
		case err == nil:
			clean++
		case errors.As(err, &rte) && strings.Contains(rte.Msg, "out of range"):
			failed++
		default:
			t.Fatalf("%v: %v", sch, err)
		}
		checkRecycledRun(t, fmt.Sprintf("after %v", sch), &a, runner, prog.Target, cfg, Schedule{})
	}
	if failed == 0 || clean == 0 {
		t.Fatalf("%d failed and %d clean runs: the grid must hold both", failed, clean)
	}
}

// TestViolationOutlivesArena: a Violation holds rendered strings only, so
// it reads the same after the arena that produced it has been reused.
func TestViolationOutlivesArena(t *testing.T) {
	tc := negSuite()[0]
	weak, err := splitc.Compile(tc.src, splitc.Options{Procs: 2, Level: tc.level, Weaken: tc.weaken})
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.CM5(2)
	runner, err := interp.NewRunner(weak.Target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var a arena
	_, v, err := a.runOne(Schedule{}, runner.Run)
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		t.Fatal("the weakened Dekker program was not flagged on the deterministic schedule")
	}
	before := v.String()
	for _, sch := range Schedules(10) {
		if _, _, err := a.runOne(sch, runner.Run); err != nil {
			t.Fatal(err)
		}
	}
	if after := v.String(); after != before {
		t.Fatalf("violation changed under arena reuse\nbefore:\n%s\nafter:\n%s", before, after)
	}
}
