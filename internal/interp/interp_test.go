package interp

import (
	"testing"

	"repro/internal/codegen"
	"repro/internal/delay"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/syncanal"
	"repro/internal/target"
)

// build compiles src at the given optimization setting.
func build(t *testing.T, src string, procs int, opts codegen.Options) (*ir.Fn, *target.Prog) {
	t.Helper()
	fn := ir.MustBuild(src, ir.BuildOptions{Procs: procs})
	res := syncanal.Analyze(fn, syncanal.Options{})
	return fn, codegen.Generate(fn, res.D, opts).Prog
}

func run(t *testing.T, prog *target.Prog, cfg machine.Config, opts RunOptions) *Result {
	t.Helper()
	res, err := Run(prog, cfg, opts)
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, prog)
	}
	return res
}

func TestHelloPrint(t *testing.T) {
	_, prog := build(t, `
func main() {
    print("hello", MYPROC, PROCS);
}
`, 2, codegen.Options{Pipeline: true})
	res := run(t, prog, machine.Ideal(2), RunOptions{})
	if len(res.Prints) != 2 {
		t.Fatalf("prints = %v", res.Prints)
	}
	if res.Prints[0] != "[p0] hello 0 2" || res.Prints[1] != "[p1] hello 1 2" {
		t.Errorf("prints = %v", res.Prints)
	}
}

func TestSharedWriteVisible(t *testing.T) {
	_, prog := build(t, `
shared int A[4];
func main() {
    A[MYPROC] = MYPROC * 10;
}
`, 4, codegen.Options{Pipeline: true, OneWay: true})
	res := run(t, prog, machine.CM5(4), RunOptions{})
	a := res.Memory["A"]
	for i := 0; i < 4; i++ {
		if a[i].I != int64(i*10) {
			t.Errorf("A[%d] = %v, want %d", i, a[i], i*10)
		}
	}
}

func TestBarrierOrdersPhases(t *testing.T) {
	src := `
shared int A[8];
shared int B[8];
func main() {
    A[MYPROC] = MYPROC + 1;
    barrier;
    B[MYPROC] = A[(MYPROC + 1) % PROCS] * 2;
}
`
	for _, jitter := range []float64{0, 0.5} {
		_, prog := build(t, src, 8, codegen.Options{Pipeline: true, OneWay: true})
		res := run(t, prog, machine.CM5(8), RunOptions{Jitter: jitter, Seed: 42})
		for i := 0; i < 8; i++ {
			want := int64(((i+1)%8 + 1) * 2)
			if res.Memory["B"][i].I != want {
				t.Errorf("jitter=%g: B[%d] = %v, want %d", jitter, i, res.Memory["B"][i], want)
			}
		}
	}
}

func TestPostWaitProducerConsumer(t *testing.T) {
	src := `
shared int X;
event ready;
func main() {
    if (MYPROC == 0) {
        X = 42;
        post(ready);
    }
    if (MYPROC == 1) {
        wait(ready);
        local int v = X;
        print("got", v);
    }
}
`
	_, prog := build(t, src, 2, codegen.Options{Pipeline: true})
	for seed := int64(0); seed < 10; seed++ {
		res := run(t, prog, machine.CM5(2), RunOptions{Jitter: 0.8, Seed: seed})
		found := false
		for _, p := range res.Prints {
			if p == "[p1] got 42" {
				found = true
			}
		}
		if !found {
			t.Fatalf("seed %d: consumer read stale value: %v", seed, res.Prints)
		}
	}
}

func TestLockMutualExclusion(t *testing.T) {
	src := `
shared int Total;
lock m;
func main() {
    lock(m);
    Total = Total + 1;
    unlock(m);
}
`
	_, prog := build(t, src, 8, codegen.Options{Pipeline: true})
	for seed := int64(0); seed < 5; seed++ {
		res := run(t, prog, machine.CM5(8), RunOptions{Jitter: 0.7, Seed: seed})
		if res.Memory["Total"][0].I != 8 {
			t.Fatalf("seed %d: Total = %v, want 8 (lost update?)", seed, res.Memory["Total"][0])
		}
	}
}

func TestDoublePostFails(t *testing.T) {
	_, prog := build(t, `
event e;
func main() {
    post(e);
}
`, 2, codegen.Options{Pipeline: true})
	if _, err := Run(prog, machine.Ideal(2), RunOptions{}); err == nil {
		t.Fatal("two processors posting the same event should fail")
	}
}

func TestDeadlockDetected(t *testing.T) {
	_, prog := build(t, `
event e;
func main() {
    wait(e);
}
`, 2, codegen.Options{Pipeline: true})
	if _, err := Run(prog, machine.Ideal(2), RunOptions{}); err == nil {
		t.Fatal("waiting on a never-posted event should deadlock")
	}
}

func TestBarrierMisalignmentDetected(t *testing.T) {
	_, prog := build(t, `
func main() {
    if (MYPROC == 0) {
        barrier;
    } else {
        barrier;
    }
}
`, 2, codegen.Options{Pipeline: true})
	if _, err := Run(prog, machine.Ideal(2), RunOptions{}); err == nil {
		t.Fatal("different barrier statements should trip the alignment check")
	}
}

func TestOutOfBoundsDetected(t *testing.T) {
	_, prog := build(t, `
shared int A[4];
func main() {
    A[MYPROC + 10] = 1;
}
`, 2, codegen.Options{Pipeline: true})
	if _, err := Run(prog, machine.Ideal(2), RunOptions{}); err == nil {
		t.Fatal("out-of-bounds access should fail")
	}
}

func TestDivisionByZeroDetected(t *testing.T) {
	_, prog := build(t, `
func main() {
    local int z = 0;
    local int x = 1 / z;
}
`, 1, codegen.Options{Pipeline: true})
	if _, err := Run(prog, machine.Ideal(1), RunOptions{}); err == nil {
		t.Fatal("division by zero should fail")
	}
}

// Figure 1: without delay enforcement the flag/data idiom breaks under
// network reordering; with the computed delay set it never does. The
// scalars live on the consumer's memory module (as on a real CM-5, where
// the consumer polls its own memory), so the producer issues two remote
// writes whose arrival order is what matters.
const figure1Src = `
shared int Data on 1 = 0;
shared int Flag on 1 = 0;
func main() {
    local int v = 0;
    if (MYPROC == 0) {
        Data = 1;
        Flag = 1;
    } else {
        while (v == 0) {
            v = Flag;
        }
        v = Data;
        print("data", v);
    }
}
`

func TestFigure1ViolationWithoutDelays(t *testing.T) {
	fn := ir.MustBuild(figure1Src, ir.BuildOptions{Procs: 2})
	empty := delay.NewSet(fn) // a broken compiler: no delay enforcement
	prog := codegen.Generate(fn, empty, codegen.Options{Pipeline: true}).Prog
	sawViolation := false
	for seed := int64(0); seed < 200 && !sawViolation; seed++ {
		res, err := Run(prog, machine.CM5(2), RunOptions{Jitter: 8.0, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Prints {
			if p == "[p1] data 0" {
				sawViolation = true
			}
		}
	}
	if !sawViolation {
		t.Error("expected at least one SC violation across 200 seeds with no delays")
	}
}

func TestFigure1NoViolationWithDelays(t *testing.T) {
	fn := ir.MustBuild(figure1Src, ir.BuildOptions{Procs: 2})
	res := syncanal.Analyze(fn, syncanal.Options{})
	prog := codegen.Generate(fn, res.D, codegen.Options{Pipeline: true}).Prog
	for seed := int64(0); seed < 200; seed++ {
		r, err := Run(prog, machine.CM5(2), RunOptions{Jitter: 8.0, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range r.Prints {
			if p == "[p1] data 0" {
				t.Fatalf("seed %d: SC violation with delay set enforced", seed)
			}
		}
	}
}

func TestStatsAndMessages(t *testing.T) {
	_, prog := build(t, `
shared int A[2];
func main() {
    A[(MYPROC + 1) % 2] = 7;
    barrier;
    local int v = A[MYPROC];
    print("v", v);
}
`, 2, codegen.Options{Pipeline: true})
	res := run(t, prog, machine.CM5(2), RunOptions{})
	if res.Messages == 0 {
		t.Error("expected network messages")
	}
	totalPuts := 0
	for _, st := range res.Stats {
		totalPuts += st.Puts
	}
	if totalPuts != 2 {
		t.Errorf("puts = %d, want 2 (one remote write per proc)", totalPuts)
	}
	for _, st := range res.Stats {
		if st.Barriers != 1 {
			t.Errorf("barriers = %d, want 1", st.Barriers)
		}
		if st.LocalAcc == 0 {
			t.Errorf("expected a local access for A[MYPROC]")
		}
	}
}

func TestOneWayReducesMessages(t *testing.T) {
	src := `
shared float B[72];
shared float S[8];
func main() {
    // Each processor writes its right neighbor's block: remote puts whose
    // completion is only needed at the barrier, because the next phase
    // reads the values.
    for (local int i = 0; i < 8; i = i + 1) {
        B[MYPROC * 8 + i + 8] = 1.5;
    }
    barrier;
    local float acc = 0.0;
    for (local int j = 0; j < 8; j = j + 1) {
        acc = acc + B[MYPROC * 8 + j];
    }
    S[MYPROC] = acc;
}
`
	_, two := build(t, src, 8, codegen.Options{Pipeline: true})
	_, one := build(t, src, 8, codegen.Options{Pipeline: true, OneWay: true})
	r2 := run(t, two, machine.CM5(8), RunOptions{})
	r1 := run(t, one, machine.CM5(8), RunOptions{})
	if r1.Messages >= r2.Messages {
		t.Errorf("one-way should reduce messages: %d vs %d", r1.Messages, r2.Messages)
	}
	if r1.Time >= r2.Time {
		t.Errorf("one-way should reduce time: %.0f vs %.0f", r1.Time, r2.Time)
	}
	// Same final memory either way.
	if FormatSnapshot(r1.Memory) != FormatSnapshot(r2.Memory) {
		t.Error("one-way conversion changed the result")
	}
}

func TestPipeliningReducesTime(t *testing.T) {
	// Three independent remote reads per element (the EM3D shape: a value
	// is a function of several neighbors): pipelining overlaps them.
	src := `
shared float H[512];
shared float E[512];
func main() {
    barrier;
    for (local int i = 0; i < 512 / PROCS; i = i + 1) {
        local int base = MYPROC * (512 / PROCS) + i;
        E[base] = H[(base + 64) % 512] + H[(base + 128) % 512] + H[(base + 256) % 512];
    }
    barrier;
}
`
	fn := ir.MustBuild(src, ir.BuildOptions{Procs: 8})
	res := syncanal.Analyze(fn, syncanal.Options{})
	blocking := codegen.Generate(fn, res.D, codegen.Options{Pipeline: false}).Prog
	pipelined := codegen.Generate(fn, res.D, codegen.Options{Pipeline: true}).Prog
	rb := run(t, blocking, machine.CM5(8), RunOptions{})
	rp := run(t, pipelined, machine.CM5(8), RunOptions{})
	if rp.Time >= rb.Time {
		t.Errorf("pipelining should reduce time: blocking %.0f, pipelined %.0f", rb.Time, rp.Time)
	}
	if FormatSnapshot(rp.Memory) != FormatSnapshot(rb.Memory) {
		t.Error("pipelining changed the result")
	}
	speedup := rb.Time / rp.Time
	t.Logf("pipelining speedup: %.2fx (%.0f -> %.0f cycles)", speedup, rb.Time, rp.Time)
}

func TestDeterministicWithoutJitter(t *testing.T) {
	_, prog := build(t, `
shared int A[16];
func main() {
    A[MYPROC] = MYPROC;
    barrier;
    A[(MYPROC + 1) % PROCS] = A[MYPROC] + 1;
}
`, 4, codegen.Options{Pipeline: true})
	r1 := run(t, prog, machine.CM5(4), RunOptions{})
	r2 := run(t, prog, machine.CM5(4), RunOptions{})
	if r1.Time != r2.Time || FormatSnapshot(r1.Memory) != FormatSnapshot(r2.Memory) {
		t.Error("jitter-free runs should be deterministic")
	}
}

func TestRemoteRoundTripMatchesTable1(t *testing.T) {
	for _, cfg := range machine.Table1(4) {
		want := map[string]float64{"CM-5": 400, "T3D": 85, "DASH": 110}[cfg.Name]
		if got := cfg.RemoteRoundTrip(); got != want {
			t.Errorf("%s round trip = %g, want %g", cfg.Name, got, want)
		}
	}
}

func TestBlockingRemoteAccessCost(t *testing.T) {
	// One blocking (non-pipelined) remote read on an otherwise idle
	// machine should cost about the Table 1 round trip.
	fn := ir.MustBuild(`
shared int X on 1;
func main() {
    if (MYPROC == 0) {
        local int v = X;
        print("v", v);
    }
}
`, ir.BuildOptions{Procs: 2})
	res := syncanal.Analyze(fn, syncanal.Options{})
	prog := codegen.Generate(fn, res.D, codegen.Options{Pipeline: false}).Prog
	r := run(t, prog, machine.CM5(2), RunOptions{})
	rt := machine.CM5(2).RemoteRoundTrip()
	if r.Stats[0].Cycles < rt || r.Stats[0].Cycles > rt+50 {
		t.Errorf("remote read cost %.0f cycles, want about %.0f", r.Stats[0].Cycles, rt)
	}
}

func TestLocalAccessCheaperThanRemote(t *testing.T) {
	mk := func(idx string) float64 {
		fn := ir.MustBuild(`
shared int A[2];
func main() {
    if (MYPROC == 0) {
        local int v = A[`+idx+`];
        print("v", v);
    }
}
`, ir.BuildOptions{Procs: 2})
		res := syncanal.Analyze(fn, syncanal.Options{})
		prog := codegen.Generate(fn, res.D, codegen.Options{Pipeline: false}).Prog
		r := run(t, prog, machine.CM5(2), RunOptions{})
		return r.Stats[0].Cycles
	}
	local := mk("0")
	remote := mk("1")
	if local >= remote {
		t.Errorf("local %.0f should be cheaper than remote %.0f", local, remote)
	}
}

// TestEfficiencyIncreasesWithPipelining tests the paper's Figure 13
// wording directly: "the efficiency of a parallel program increases when
// we transform blocking operations by asynchronous operations" — CPU
// utilization (busy/total) rises from baseline to pipelined.
func TestEfficiencyIncreasesWithPipelining(t *testing.T) {
	src := `
shared float H[512];
shared float E[512];
func main() {
    barrier;
    for (local int i = 0; i < 512 / PROCS; i = i + 1) {
        local int base = MYPROC * (512 / PROCS) + i;
        E[base] = H[(base + 64) % 512] + H[(base + 128) % 512] + H[(base + 256) % 512];
    }
    barrier;
}
`
	fn := ir.MustBuild(src, ir.BuildOptions{Procs: 8})
	res := syncanal.Analyze(fn, syncanal.Options{})
	util := func(pipeline bool) float64 {
		prog := codegen.Generate(fn, res.D, codegen.Options{Pipeline: pipeline}).Prog
		r := run(t, prog, machine.CM5(8), RunOptions{})
		busy, total := 0.0, 0.0
		for _, st := range r.Stats {
			busy += st.Busy
			total += st.Cycles
		}
		return busy / total
	}
	blocking := util(false)
	pipe := util(true)
	if pipe <= blocking {
		t.Errorf("efficiency should rise: blocking %.1f%%, pipelined %.1f%%", blocking*100, pipe*100)
	}
	t.Logf("CPU utilization: blocking %.1f%%, pipelined %.1f%%", blocking*100, pipe*100)
}

func TestBusyNeverExceedsCycles(t *testing.T) {
	_, prog := build(t, `
shared int A[16];
lock m;
func main() {
    A[MYPROC] = 1;
    barrier;
    lock(m);
    A[(MYPROC + 1) % PROCS] = A[MYPROC] + 1;
    unlock(m);
}
`, 4, codegen.Options{Pipeline: true})
	res := run(t, prog, machine.CM5(4), RunOptions{})
	for i, st := range res.Stats {
		if st.Busy > st.Cycles {
			t.Errorf("p%d: busy %.0f > cycles %.0f", i, st.Busy, st.Cycles)
		}
		if st.Busy <= 0 {
			t.Errorf("p%d: busy time not tracked", i)
		}
	}
}

// TestDelayVerifierOnKernels: the generated code for a phase-structured
// program enforces its own delay set (checked at every initiation).
func TestDelayVerifierAcceptsGeneratedCode(t *testing.T) {
	src := `
shared float U[32];
shared float G[32];
event e;
lock m;
shared int T;
func main() {
    U[MYPROC * (32 / PROCS)] = 1.0;
    barrier;
    G[MYPROC * (32 / PROCS)] = U[(MYPROC * (32 / PROCS) + 4) % 32];
    if (MYPROC == 0) {
        post(e);
    }
    wait(e);
    lock(m);
    T = T + 1;
    unlock(m);
}
`
	fn := ir.MustBuild(src, ir.BuildOptions{Procs: 4})
	res := syncanal.Analyze(fn, syncanal.Options{})
	for _, c := range []struct {
		delays *delay.Set
		opts   codegen.Options
	}{
		{res.Baseline, codegen.Options{Pipeline: true}},
		{res.D, codegen.Options{Pipeline: true, OneWay: true, CSE: true, Hoist: true}},
	} {
		prog := codegen.Generate(fn, c.delays, c.opts).Prog
		for seed := int64(0); seed < 5; seed++ {
			if _, err := Run(prog, machine.CM5(4), RunOptions{
				Jitter: 3, Seed: seed, VerifyDelays: c.delays,
			}); err != nil {
				t.Fatalf("verifier rejected generated code: %v", err)
			}
		}
	}
}

// TestDelayVerifierCatchesViolations: code generated with an empty delay
// set, verified against the real one, must trip the checker.
func TestDelayVerifierCatchesViolations(t *testing.T) {
	fn := ir.MustBuild(figure1Src, ir.BuildOptions{Procs: 2})
	res := syncanal.Analyze(fn, syncanal.Options{})
	unsafe := codegen.Generate(fn, delay.NewSet(fn), codegen.Options{Pipeline: true}).Prog
	caught := false
	for seed := int64(0); seed < 20 && !caught; seed++ {
		_, err := Run(unsafe, machine.CM5(2), RunOptions{Jitter: 2, Seed: seed, VerifyDelays: res.D})
		if err != nil {
			caught = true
		}
	}
	if !caught {
		t.Error("verifier should reject unsafe code against the real delay set")
	}
}

func TestLockQueueServesAllWaiters(t *testing.T) {
	// All processors contend for one lock; the holder chain must serve
	// everyone exactly once (the shared counter sees every increment),
	// and with no jitter the run is deterministic.
	src := `
shared int Order[8];
shared int Next;
lock m;
func main() {
    lock(m);
    local int slot = Next;
    Next = slot + 1;
    Order[slot] = MYPROC;
    unlock(m);
}
`
	_, prog := build(t, src, 8, codegen.Options{Pipeline: true})
	r1 := run(t, prog, machine.CM5(8), RunOptions{})
	r2 := run(t, prog, machine.CM5(8), RunOptions{})
	if r1.Memory["Next"][0].I != 8 {
		t.Fatalf("Next = %v, want 8", r1.Memory["Next"][0])
	}
	seen := map[int64]bool{}
	for _, v := range r1.Memory["Order"] {
		if seen[v.I] {
			t.Fatalf("processor %d served twice: %v", v.I, r1.Memory["Order"])
		}
		seen[v.I] = true
	}
	if FormatSnapshot(r1.Memory) != FormatSnapshot(r2.Memory) {
		t.Error("lock service order should be deterministic without jitter")
	}
}

func TestWaitBeforeAndAfterPost(t *testing.T) {
	// Both orders of arrival at the event work: a waiter that arrives
	// first blocks and is woken; a waiter that arrives after the post
	// passes through.
	src := `
shared int R[2];
event e;
func main() {
    if (MYPROC == 1) {
        post(e);
    }
    wait(e);
    R[MYPROC] = 1;
}
`
	_, prog := build(t, src, 2, codegen.Options{Pipeline: true})
	for seed := int64(0); seed < 6; seed++ {
		res := run(t, prog, machine.CM5(2), RunOptions{Jitter: 3, Seed: seed})
		if res.Memory["R"][0].I != 1 || res.Memory["R"][1].I != 1 {
			t.Fatalf("seed %d: R = %v", seed, res.Memory["R"])
		}
	}
}

func TestMaxEventsGuard(t *testing.T) {
	// A tiny event budget trips the livelock guard instead of hanging.
	src := `
shared int A[64];
func main() {
    for (local int i = 0; i < 8; i = i + 1) {
        A[MYPROC * 8 + i] = i;
    }
}
`
	_, prog := build(t, src, 8, codegen.Options{Pipeline: true})
	if _, err := Run(prog, machine.CM5(8), RunOptions{MaxEvents: 10}); err == nil {
		t.Error("expected the event budget to trip")
	}
}
