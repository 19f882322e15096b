package interp_test

// A Runner that has already made other runs must be indistinguishable from
// a fresh simulator: every run here is made twice, once on a long-lived
// Runner and once on a new one from NewRunner (not through interp.Run,
// which reuses the Runner parked on the program), and compared exactly —
// result, error, and tap stream. The run lists are ordered so that each
// run follows one that leaves different state behind.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	splitc "repro"
	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/progen"
)

// runStep is one run of a reuse sequence; tapped attaches a recording tap,
// walker runs it on the AST walker instead of the bytecode VM.
type runStep struct {
	name   string
	opts   interp.RunOptions
	tapped bool
	walker bool
	// wantErr, if set, must appear in the run's error: the step exists to
	// abandon the simulator mid-run.
	wantErr string
	// halfBudget sets MaxEvents to half the events the run needs, so the
	// run is abandoned midway with events queued and operations in flight.
	halfBudget bool
}

// freshRun makes one run on a new Runner, on the walker or the VM.
func freshRun(prog *splitc.Program, cfg machine.Config, opts interp.RunOptions, walker bool) (*interp.Result, error) {
	r, err := interp.NewRunner(prog.Target, cfg)
	if err != nil {
		return nil, err
	}
	r.SetWalker(walker)
	return r.Run(opts)
}

// checkReuse makes every step on one Runner and on a fresh one.
func checkReuse(t *testing.T, label string, prog *splitc.Program, cfg machine.Config, steps []runStep) {
	t.Helper()
	runner, err := interp.NewRunner(prog.Target, cfg)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	checkSteps(t, label, prog, cfg, steps, func(st runStep, opts interp.RunOptions) (*interp.Result, error) {
		runner.SetWalker(st.walker)
		return runner.Run(opts)
	})
}

// checkSteps makes every step with run and on a fresh Runner.
func checkSteps(t *testing.T, label string, prog *splitc.Program, cfg machine.Config, steps []runStep,
	run func(st runStep, opts interp.RunOptions) (*interp.Result, error)) {
	t.Helper()
	for i, st := range steps {
		id := fmt.Sprintf("%s step %d (%s)", label, i, st.name)
		var reused, fresh *traceTap
		if st.halfBudget {
			full, err := freshRun(prog, cfg, st.opts, st.walker)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			st.opts.MaxEvents = full.Events / 2
			st.wantErr = fmt.Sprintf("exceeded %d events", st.opts.MaxEvents)
		}
		ropts, fopts := st.opts, st.opts
		if st.tapped {
			reused, fresh = &traceTap{}, &traceTap{}
			ropts.Tap, fopts.Tap = reused, fresh
		}
		got, gotErr := run(st, ropts)
		want, wantErr := freshRun(prog, cfg, fopts, st.walker)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v on the reused runner, %v fresh", id, gotErr, wantErr)
		}
		if st.wantErr != "" && (wantErr == nil || !strings.Contains(wantErr.Error(), st.wantErr)) {
			t.Fatalf("%s: error %v, want one containing %q", id, wantErr, st.wantErr)
		}
		if st.wantErr == "" && wantErr != nil {
			t.Fatalf("%s: %v", id, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: result differs\nreused: %+v\nfresh:  %+v", id, got, want)
		}
		if st.tapped && !reflect.DeepEqual(reused.lines, fresh.lines) {
			d := firstDiff(reused.lines, fresh.lines)
			t.Fatalf("%s: tap stream differs at line %d:\nreused: %s\nfresh:  %s", id, d, pick(reused.lines, d), pick(fresh.lines, d))
		}
	}
}

// reuseSteps alternates engines, the tapped and the lazy-read paths,
// jittered and plain runs, and puts an abandoned run in the middle.
func reuseSteps() []runStep {
	return []runStep{
		{name: "plain vm", opts: interp.RunOptions{}},
		{name: "perturbed tapped vm", opts: interp.RunOptions{Jitter: 5, Seed: 3, Perturb: true}, tapped: true},
		{name: "plain walker", opts: interp.RunOptions{}, walker: true},
		{name: "event budget exhausted", opts: interp.RunOptions{Jitter: 2, Seed: 7}, tapped: true, halfBudget: true},
		{name: "plain tapped vm", opts: interp.RunOptions{}, tapped: true},
		{name: "jittered walker", opts: interp.RunOptions{Jitter: 2, Seed: 7}, tapped: true, walker: true},
		{name: "same seed again, vm", opts: interp.RunOptions{Jitter: 2, Seed: 7}, tapped: true},
		{name: "plain vm, lazy reads", opts: interp.RunOptions{}},
	}
}

func TestRunnerReuseMatchesFreshRun(t *testing.T) {
	for _, k := range apps.All() {
		for _, level := range []splitc.Level{splitc.LevelBlocking, splitc.LevelOneWay} {
			prog, err := splitc.Compile(k.Source(4, 1), splitc.Options{Procs: 4, Level: level, CSE: true})
			if err != nil {
				t.Fatal(err)
			}
			checkReuse(t, fmt.Sprintf("%s/%s", k.Name, level), prog, machine.CM5(4), reuseSteps())
		}
	}
	// Racy sync idioms: posts, waits, locks — the objects a reset must clear.
	for _, tc := range diffSrcs {
		prog, err := splitc.Compile(tc.src, splitc.Options{Procs: 2, Level: splitc.LevelOneWay})
		if err != nil {
			t.Fatal(err)
		}
		checkReuse(t, tc.name, prog, machine.CM5(2), reuseSteps())
	}
	seeds := int64(40)
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(0); seed < seeds; seed++ {
		prog, err := splitc.Compile(progen.Generate(seed, progen.Options{Procs: 2}),
			splitc.Options{Procs: 2, Level: splitc.LevelPipelined, CSE: seed%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		checkReuse(t, fmt.Sprintf("progen-%d", seed), prog, machine.CM5(2), reuseSteps())
	}
}

// TestRunnerReuseAfterDelayViolation: code compiled with every delay
// dropped, run with the delay verifier on, fails with a RuntimeError in
// the middle of a run; the same runner with the verifier off must then
// behave like a fresh one, and so must the verifier-on run that follows.
func TestRunnerReuseAfterDelayViolation(t *testing.T) {
	const src = `
shared int Data on 1 = 0;
shared int Flag on 1 = 0;
func main() {
	local int v = 0;
	if (MYPROC == 0) {
		Data = 1;
		Flag = 1;
	} else {
		v = Flag;
		v = Data;
	}
}
`
	safe, err := splitc.Compile(src, splitc.Options{Procs: 2, Level: splitc.LevelPipelined})
	if err != nil {
		t.Fatal(err)
	}
	d := safe.Analysis.D
	if d.Size() == 0 {
		t.Fatal("flag/data program has an empty delay set")
	}
	// Every delay weakened: the puts stay acknowledged puts (the delay
	// verifier does not track one-way stores) and nothing orders them.
	prog, err := splitc.Compile(src, splitc.Options{Procs: 2, Level: splitc.LevelPipelined, Weaken: d.Pairs()})
	if err != nil {
		t.Fatal(err)
	}
	checkReuse(t, "flagdata/weakened", prog, machine.CM5(2), []runStep{
		{name: "verifier off", opts: interp.RunOptions{Jitter: 2, Seed: 1}, tapped: true},
		{name: "verifier on", opts: interp.RunOptions{Jitter: 2, Seed: 1, VerifyDelays: d}, tapped: true, wantErr: "delay violation"},
		{name: "verifier off again", opts: interp.RunOptions{Jitter: 2, Seed: 1}, tapped: true},
		{name: "verifier on, walker", opts: interp.RunOptions{VerifyDelays: d}, walker: true, wantErr: "delay violation"},
		{name: "plain", opts: interp.RunOptions{}},
	})
}

// TestRunnerReuseAfterDeadlock: whether this program deadlocks is up to
// the network. Processor 1's write of X races a round trip of processor
// 0's; when the write loses, nobody posts E and processor 1 waits for ever,
// queued on the event object. Deadlocking and clean schedules alternate on
// one runner.
func TestRunnerReuseAfterDeadlock(t *testing.T) {
	const src = `
shared int X on 0 = 0;
shared int Y on 1 = 0;
event E[2];
func main() {
	local int v = 0;
	if (MYPROC == 1) {
		X = 1;
		wait(E[0]);
	} else {
		v = Y;
		v = X;
		if (v == 1) {
			post(E[0]);
		}
	}
}
`
	prog, err := splitc.Compile(src, splitc.Options{Procs: 2, Level: splitc.LevelPipelined})
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.CM5(2)
	var dead, clean []int64
	for seed := int64(0); seed < 400 && (len(dead) < 2 || len(clean) < 2); seed++ {
		_, err := interp.Run(prog.Target, cfg, interp.RunOptions{Jitter: 8, Seed: seed})
		switch {
		case err == nil:
			clean = append(clean, seed)
		case strings.Contains(err.Error(), "deadlock"):
			dead = append(dead, seed)
		default:
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if len(dead) < 2 || len(clean) < 2 {
		t.Fatalf("400 seeds gave %d deadlocking and %d clean schedules, want 2 of each", len(dead), len(clean))
	}
	jit := func(seed int64) interp.RunOptions {
		return interp.RunOptions{Jitter: 8, Seed: seed}
	}
	checkReuse(t, "racy-deadlock", prog, cfg, []runStep{
		{name: "deadlock", opts: jit(dead[0]), tapped: true, wantErr: "deadlock"},
		{name: "clean", opts: jit(clean[0]), tapped: true},
		{name: "deadlock, walker", opts: jit(dead[1]), walker: true, wantErr: "deadlock"},
		{name: "clean, walker", opts: jit(clean[1]), tapped: true, walker: true},
		{name: "deadlock again", opts: jit(dead[0]), wantErr: "deadlock"},
		{name: "plain", opts: interp.RunOptions{}},
	})
}

// TestSeededRunAllocatesLikePlain: drawing a schedule costs no allocation.
// Once a Runner is warm, a jittered and perturbed run allocates exactly
// what a deterministic one does — its Result — seeding the generator
// included.
func TestSeededRunAllocatesLikePlain(t *testing.T) {
	prog, err := splitc.Compile(apps.ByName("EM3D").Source(4, 1), splitc.Options{Procs: 4, Level: splitc.LevelOneWay})
	if err != nil {
		t.Fatal(err)
	}
	runner, err := interp.NewRunner(prog.Target, machine.CM5(4))
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts interp.RunOptions) {
		if _, err := runner.Run(opts); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up: every seed measured below, so queue and slabs are at their
	// high-water mark.
	for seed := int64(0); seed <= 21; seed++ {
		run(interp.RunOptions{Seed: seed, Jitter: 8, Perturb: true})
	}
	plain := testing.AllocsPerRun(20, func() { run(interp.RunOptions{}) })
	seed := int64(0)
	seeded := testing.AllocsPerRun(20, func() {
		run(interp.RunOptions{Seed: seed, Jitter: 8, Perturb: true})
		seed++
	})
	if seeded != plain {
		t.Fatalf("a seeded run allocates %v times, a plain one %v", seeded, plain)
	}
}
