package interp_test

// Differential testing of the executor's one fast path: lazy get-reads
// (untapped deterministic runs; reads never enter the event queue) against
// the same run with every read pushed through the queue, which is the path
// a tapped, jittered or perturbed run takes. The two claim to be the same
// schedule — pscsim reports the first, scverify checks the second — so
// every comparison is exact: makespan, message and event counts,
// per-processor stats, final memory and prints, and error text.
// engines_diff_test.go compares the two engines inside each mode; this
// file is the only place the modes meet.

import (
	"fmt"
	"testing"

	splitc "repro"
	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/progen"
)

// lazyDiffer makes the paired runs and tallies what they exercised.
type lazyDiffer struct {
	t *testing.T
	// forcing counts write dispatches, over all lazy runs, that found an
	// unsampled lazy read outstanding: zero means the lazy path never ran.
	forcing int
}

// modeRun is one run's comparable observables.
type modeRun struct {
	res *interp.Result
	err string
}

func runMode(r *interp.Runner, opts interp.RunOptions, queued bool) modeRun {
	r.SetQueueReads(queued)
	res, err := r.Run(opts)
	if err != nil {
		return modeRun{err: err.Error()}
	}
	return modeRun{res: res}
}

// diff runs prog lazily and queued on one Runner (so the bound's reset is
// exercised too) and fails on the first divergence. It returns the queued
// run.
func (d *lazyDiffer) diff(label string, prog *splitc.Program, cfg machine.Config, opts interp.RunOptions) modeRun {
	d.t.Helper()
	r, err := interp.NewRunner(prog.Target, cfg)
	if err != nil {
		d.t.Fatalf("%s: %v", label, err)
	}
	forcing := r.CheckForcingBound(func(msg string) { d.t.Fatalf("%s: forcing bound violated: %s", label, msg) })
	queued := runMode(r, opts, true)
	lazy := runMode(r, opts, false)
	d.forcing += *forcing
	if lazy.err != queued.err {
		d.t.Fatalf("%s: error divergence:\nlazy:   %q\nqueued: %q", label, lazy.err, queued.err)
	}
	if lazy.err != "" {
		return queued
	}
	sameResult(d.t, label, "lazy", lazy.res, "queued", queued.res)
	return queued
}

func compileAt(t *testing.T, label, src string, opts splitc.Options) *splitc.Program {
	t.Helper()
	prog, err := splitc.Compile(src, opts)
	if err != nil {
		t.Fatalf("%s: compile: %v", label, err)
	}
	return prog
}

// TestLazyDiffApps: the five kernels at every level on 4, 8 and 16
// processors. Cholesky (post/wait) and Health (locks) are the programs the
// old gate kept off the lazy path.
func TestLazyDiffApps(t *testing.T) {
	d := &lazyDiffer{t: t}
	for _, k := range apps.All() {
		for _, level := range splitc.Levels() {
			for _, procs := range []int{4, 8, 16} {
				if testing.Short() && procs != 4 {
					continue
				}
				label := fmt.Sprintf("%s/%s@%d", k.Name, level, procs)
				prog := compileAt(t, label, k.Source(procs, 1), splitc.Options{Procs: procs, Level: level})
				d.diff(label, prog, machine.CM5(procs), interp.RunOptions{})
			}
		}
	}
	if d.forcing == 0 {
		t.Fatal("no write dispatch ever found a lazy read outstanding: the lazy path was not exercised")
	}
}

// TestLazyDiffProgen sweeps generated racy programs — the ones whose
// outcome depends on how same-instant events tie-break — across machine
// shapes and levels.
func TestLazyDiffProgen(t *testing.T) {
	if testing.Short() {
		t.Skip("progen grid skipped in -short mode")
	}
	shapes := []struct {
		name  string
		popts progen.Options
	}{
		{"p2", progen.Options{Procs: 2}},
		{"p4", progen.Options{Procs: 4}},
		{"p8", progen.Options{Procs: 8}},
		{"bigproc16", progen.BigProc(16)},
	}
	levels := []splitc.Level{splitc.LevelBlocking, splitc.LevelPipelined, splitc.LevelOneWay, splitc.LevelUnsafe}
	d := &lazyDiffer{t: t}
	for _, sh := range shapes {
		for seed := int64(0); seed < 300; seed++ {
			src := progen.Generate(seed, sh.popts)
			for _, level := range levels {
				label := fmt.Sprintf("%s/seed%d/%s", sh.name, seed, level)
				prog := compileAt(t, label, src, splitc.Options{Procs: sh.popts.Procs, Level: level, CSE: seed%2 == 0})
				d.diff(label, prog, machine.CM5(sh.popts.Procs), interp.RunOptions{})
			}
		}
	}
	if d.forcing == 0 {
		t.Fatal("no write dispatch ever found a lazy read outstanding: the lazy path was not exercised")
	}
}

// TestLazyDiffSeed298Unsafe is the case that showed the removed sync
// shortcut (a sync_ctr with no unsampled reads continuing without a queue
// round trip) was not exact: running ahead in run order drew seq numbers
// in a different interleaving, two same-instant racing writes to S1
// tie-broke the other way, and the untapped run ended with S1=17 and
// A0[0..7]=1 where the tapped run of the same schedule ends as below.
func TestLazyDiffSeed298Unsafe(t *testing.T) {
	src := progen.Generate(298, progen.BigProc(16))
	prog := compileAt(t, "seed298", src, splitc.Options{Procs: 16, Level: splitc.LevelUnsafe, CSE: true})
	d := &lazyDiffer{t: t}
	queued := d.diff("seed298/unsafe", prog, machine.CM5(16), interp.RunOptions{})
	if queued.err != "" {
		t.Fatal(queued.err)
	}
	// The public entry point, untapped, must read the same.
	res, err := prog.Run(machine.CM5(16), interp.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []map[string][]ir.Value{queued.res.Memory, res.Memory} {
		if got := m["S1"][0].I; got != 16 {
			t.Errorf("S1 = %d, want 16", got)
		}
		for i := 0; i < 8; i++ {
			if got := m["A0"][i].I; got != 0 {
				t.Errorf("A0[%d] = %d, want 0", i, got)
			}
		}
	}
}

// TestLazyDiffBudgetSweep: an event budget must cut a run off, or let it
// finish, identically tapless (lazy) and tapped (queued), although the lazy
// path charges a read when it is sampled (possibly in the final drain) and
// not when its queue entry would have popped. Every budget from 1 to past
// the run's event count is tried on a barrier kernel, a stencil, the lock
// kernel and the post/wait kernel.
func TestLazyDiffBudgetSweep(t *testing.T) {
	const procs = 2
	for _, name := range []string{"EM3D", "Ocean", "Health", "Cholesky"} {
		k := apps.ByName(name)
		for _, level := range []splitc.Level{splitc.LevelOneWay, splitc.LevelUnsafe} {
			label := fmt.Sprintf("%s/%s", name, level)
			prog := compileAt(t, label, k.Source(procs, 1), splitc.Options{Procs: procs, Level: level})
			r, err := interp.NewRunner(prog.Target, machine.CM5(procs))
			if err != nil {
				t.Fatal(err)
			}
			full := runMode(r, interp.RunOptions{}, false)
			if full.err != "" {
				t.Fatalf("%s: %s", label, full.err)
			}
			step := 1
			if testing.Short() {
				step = 7
			}
			for budget := 1; budget <= full.res.Events+2; budget += step {
				lazy := runMode(r, interp.RunOptions{MaxEvents: budget}, false)
				tapped := runMode(r, interp.RunOptions{MaxEvents: budget, Tap: &traceTap{}}, false)
				if lazy.err != tapped.err {
					t.Fatalf("%s budget %d of %d events: tapless %q, tapped %q",
						label, budget, full.res.Events, lazy.err, tapped.err)
				}
				if want := budget < full.res.Events; (lazy.err != "") != want {
					t.Fatalf("%s budget %d of %d events: error %q", label, budget, full.res.Events, lazy.err)
				}
			}
		}
	}
}
