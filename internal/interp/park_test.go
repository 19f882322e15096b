package interp_test

// interp.Run parks one Runner on each program it runs, and the program's
// next run takes it. These tests hold every run on a parked Runner to a run
// on a new one from NewRunner, and pin what parking keeps and drops.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	splitc "repro"
	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
)

// newRun makes one run on a new Runner.
func newRun(t *testing.T, prog *splitc.Program, cfg machine.Config, opts interp.RunOptions) *interp.Result {
	t.Helper()
	res, err := freshRun(prog, cfg, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestParkedRunnerMatchesFresh: every cell of a simulate-apps lap, run twice
// through Program.Run, reads what a new Runner reads, and the second run is
// made on the Runner the first one parked.
func TestParkedRunnerMatchesFresh(t *testing.T) {
	type cell struct {
		kernel string
		level  splitc.Level
		procs  int
	}
	var cells []cell
	for _, k := range apps.All() {
		for _, lvl := range []splitc.Level{splitc.LevelBaseline, splitc.LevelPipelined, splitc.LevelOneWay} {
			cells = append(cells, cell{k.Name, lvl, 64})
		}
	}
	cells = append(cells, cell{"Ocean", splitc.LevelOneWay, 256}, cell{"EM3D", splitc.LevelOneWay, 256})
	for _, c := range cells {
		label := fmt.Sprintf("%s/%s@%d", c.kernel, c.level, c.procs)
		prog := compileAt(t, label, apps.ByName(c.kernel).Source(c.procs, 1), splitc.Options{Procs: c.procs, Level: c.level})
		cfg := machine.CM5(c.procs)
		want := newRun(t, prog, cfg, interp.RunOptions{})
		var parked *interp.Runner
		for i := 0; i < 2; i++ {
			got, err := prog.Run(cfg, interp.RunOptions{})
			if err != nil {
				t.Fatalf("%s run %d: %v", label, i, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s run %d: result differs from a new Runner's\nparked: %+v\nnew:    %+v", label, i, got, want)
			}
			if i == 0 {
				parked = interp.Parked(prog.Target)
			}
		}
		if p := interp.Parked(prog.Target); parked == nil || p != parked {
			t.Fatalf("%s: the second run did not reuse the Runner the first one parked", label)
		}
	}
}

// TestParkedRunnerSequence runs one program through interp.Run under
// options that leave different state behind — an abandoned run, the
// tapped path, the delay verifier — each compared with a new Runner's run.
func TestParkedRunnerSequence(t *testing.T) {
	const procs = 8
	prog := compileAt(t, "Cholesky", apps.ByName("Cholesky").Source(procs, 1), splitc.Options{Procs: procs, Level: splitc.LevelOneWay})
	cfg := machine.CM5(procs)
	checkSteps(t, "Cholesky parked", prog, cfg, []runStep{
		{name: "half budget", opts: interp.RunOptions{}, halfBudget: true},
		{name: "tapped jittered perturbed", opts: interp.RunOptions{Jitter: 2, Seed: 5, Perturb: true}, tapped: true},
		{name: "delay verifier", opts: interp.RunOptions{VerifyDelays: prog.Analysis.D}},
		{name: "plain", opts: interp.RunOptions{}},
	}, func(_ runStep, opts interp.RunOptions) (*interp.Result, error) {
		return prog.Run(cfg, opts)
	})

	// A caller owns the Result it is handed: scribbling over its memory
	// must not reach the next run, nor the next run reach it.
	res, err := prog.Run(cfg, interp.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cells := range res.Memory {
		for i := range cells {
			cells[i] = ir.IntVal(-7)
		}
	}
	got, err := prog.Run(cfg, interp.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := newRun(t, prog, cfg, interp.RunOptions{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("the run after a caller wrote into its Result differs from a new Runner's")
	}
	for name, cells := range res.Memory {
		for i, v := range cells {
			if v != ir.IntVal(-7) {
				t.Fatalf("the next run changed %s[%d] of an earlier Result to %v", name, i, v)
			}
		}
	}
}

// TestParkedRunnerConcurrent: eight goroutines run one program four times
// each, under a mix of schedules. A take empties the slot, so no two runs
// share a Runner; every result must be the one a new Runner gives.
func TestParkedRunnerConcurrent(t *testing.T) {
	const procs, workers, runs = 8, 8, 4
	prog := compileAt(t, "EM3D", apps.ByName("EM3D").Source(procs, 1), splitc.Options{Procs: procs, Level: splitc.LevelOneWay})
	cfg := machine.CM5(procs)
	opts := func(w, i int) interp.RunOptions {
		if w%2 == 0 {
			return interp.RunOptions{}
		}
		return interp.RunOptions{Jitter: 3, Seed: int64(w*runs + i), Perturb: true}
	}
	want := make([][]*interp.Result, workers)
	for w := range want {
		for i := 0; i < runs; i++ {
			want[w] = append(want[w], newRun(t, prog, cfg, opts(w, i)))
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				got, err := prog.Run(cfg, opts(w, i))
				if err == nil && !reflect.DeepEqual(got, want[w][i]) {
					err = fmt.Errorf("result differs from a new Runner's")
				}
				if err != nil {
					errs[w] = fmt.Errorf("worker %d run %d: %w", w, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestParkedRunAllocatesOnlyResult: once a program has a parked Runner,
// interp.Run allocates exactly what a warm Runner's Run does — the Result.
func TestParkedRunAllocatesOnlyResult(t *testing.T) {
	const procs = 64
	prog := compileAt(t, "Cholesky", apps.ByName("Cholesky").Source(procs, 1), splitc.Options{Procs: procs, Level: splitc.LevelOneWay})
	cfg := machine.CM5(procs)
	runner, err := interp.NewRunner(prog.Target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runWarm := func() {
		if _, err := runner.Run(interp.RunOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	runParked := func() {
		if _, err := interp.Run(prog.Target, cfg, interp.RunOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	runWarm()
	runParked()
	warm := testing.AllocsPerRun(3, runWarm)
	parked := testing.AllocsPerRun(3, runParked)
	if parked != warm {
		t.Fatalf("a run on the parked Runner allocates %v times, one on a warm Runner %v", parked, warm)
	}
}

// panicTap panics at the first access a run issues.
type panicTap struct{ *traceTap }

func (panicTap) Issue(int, int, interp.OpKind, *ir.Access, int64, float64) { panic("tap gave up") }

// TestParkHygiene pins what a parked Runner keeps: no caller state after
// any run; itself after a run that failed; nothing after a run that
// panicked; and its place when the program runs on a second machine.
func TestParkHygiene(t *testing.T) {
	const procs = 4
	prog := compileAt(t, "EM3D", apps.ByName("EM3D").Source(procs, 1), splitc.Options{Procs: procs, Level: splitc.LevelOneWay})
	cfg := machine.CM5(procs)
	run := func(opts interp.RunOptions) error {
		_, err := interp.Run(prog.Target, cfg, opts)
		return err
	}

	if err := run(interp.RunOptions{Tap: &traceTap{}, VerifyDelays: prog.Analysis.D, Jitter: 1, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	first := interp.Parked(prog.Target)
	if first == nil {
		t.Fatal("interp.Run parked no Runner")
	}
	if first.HoldsCallerState() {
		t.Fatal("the parked Runner still holds its caller's tap or options")
	}

	if err := run(interp.RunOptions{Tap: &traceTap{}, MaxEvents: 10}); err == nil {
		t.Fatal("a 10-event budget did not stop the run")
	}
	if p := interp.Parked(prog.Target); p != first || p.HoldsCallerState() {
		t.Fatal("a run that returned an error did not park its Runner clean")
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the tap's panic did not reach the caller")
			}
		}()
		run(interp.RunOptions{Tap: panicTap{&traceTap{}}})
	}()
	if p := interp.Parked(prog.Target); p != nil {
		t.Fatal("a Runner whose run panicked was parked")
	}
	if err := run(interp.RunOptions{}); err != nil {
		t.Fatal(err)
	}
	second := interp.Parked(prog.Target)
	if second == nil || second == first {
		t.Fatal("the run after a panic did not park a new Runner")
	}

	slow := cfg
	slow.Name, slow.Wire = "slow", 2*cfg.Wire
	got, err := interp.Run(prog.Target, slow, interp.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := newRun(t, prog, slow, interp.RunOptions{}); !reflect.DeepEqual(got, want) {
		t.Fatal("a run on a second machine differs from a new Runner's")
	}
	if p := interp.Parked(prog.Target); p != second {
		t.Fatal("a run on a second machine displaced the parked Runner")
	}
}
