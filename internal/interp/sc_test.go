package interp

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/delay"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/syncanal"
)

func runSC(t *testing.T, fn *ir.Fn, procs int, seed int64) *SCResult {
	t.Helper()
	res, err := RunSC(fn, procs, seed)
	if err != nil {
		t.Fatalf("RunSC: %v", err)
	}
	return res
}

func TestSCBasic(t *testing.T) {
	fn := ir.MustBuild(`
shared int A[4];
func main() {
    A[MYPROC] = MYPROC * 3;
}
`, ir.BuildOptions{Procs: 4})
	res := runSC(t, fn, 4, 1)
	for i := 0; i < 4; i++ {
		if res.Memory["A"][i].I != int64(i*3) {
			t.Errorf("A[%d] = %v", i, res.Memory["A"][i])
		}
	}
}

func TestSCBarrier(t *testing.T) {
	fn := ir.MustBuild(`
shared int A[4];
shared int B[4];
func main() {
    A[MYPROC] = MYPROC + 1;
    barrier;
    B[MYPROC] = A[(MYPROC + 1) % PROCS];
}
`, ir.BuildOptions{Procs: 4})
	for seed := int64(0); seed < 20; seed++ {
		res := runSC(t, fn, 4, seed)
		for i := 0; i < 4; i++ {
			want := int64((i+1)%4 + 1)
			if res.Memory["B"][i].I != want {
				t.Errorf("seed %d: B[%d] = %v, want %d", seed, i, res.Memory["B"][i], want)
			}
		}
	}
}

func TestSCPostWaitLock(t *testing.T) {
	fn := ir.MustBuild(`
shared int X;
shared int Total;
event e;
lock m;
func main() {
    if (MYPROC == 0) {
        X = 9;
        post(e);
    } else {
        wait(e);
        local int v = X;
        print("v", v);
    }
    lock(m);
    Total = Total + 1;
    unlock(m);
}
`, ir.BuildOptions{Procs: 4})
	for seed := int64(0); seed < 20; seed++ {
		res := runSC(t, fn, 4, seed)
		if res.Memory["Total"][0].I != 4 {
			t.Fatalf("seed %d: Total = %v", seed, res.Memory["Total"][0])
		}
		for _, p := range res.Prints {
			if p != "" && p[len(p)-1] != '9' {
				t.Fatalf("seed %d: consumer saw stale X: %q", seed, p)
			}
		}
	}
}

func TestSCDeadlock(t *testing.T) {
	fn := ir.MustBuild(`
event e;
func main() {
    wait(e);
}
`, ir.BuildOptions{Procs: 2})
	if _, err := RunSC(fn, 2, 1); err == nil {
		t.Fatal("expected deadlock")
	}
}

func TestSCDoublePost(t *testing.T) {
	fn := ir.MustBuild(`
event e;
func main() {
    post(e);
}
`, ir.BuildOptions{Procs: 2})
	if _, err := RunSC(fn, 2, 1); err == nil {
		t.Fatal("expected double-post error")
	}
}

func TestSCUnlockNotHeld(t *testing.T) {
	fn := ir.MustBuild(`
lock m;
func main() {
    if (MYPROC == 0) {
        unlock(m);
    }
}
`, ir.BuildOptions{Procs: 2})
	if _, err := RunSC(fn, 2, 1); err == nil {
		t.Fatal("expected unlock-not-held error")
	}
}

// TestRunSCErrorsNameTheProcessor: every runtime error of a walk is a
// *RuntimeError naming the processor whose step raised it. Each program
// errs on processor 1 only, so a Proc left at its zero value fails.
func TestRunSCErrorsNameTheProcessor(t *testing.T) {
	cases := []struct{ name, body, msg string }{
		{"double post", "post(e); post(e);", "posted twice"},
		{"unlock not held", "unlock(m);", "not held"},
		{"shared index", "local int i = 5; A[i] = 1;", "out of range for A"},
		{"local array", "local int a[2]; local int i = 5; a[i] = 1;", "local array index"},
		{"negative fsqrt", "local float x = fsqrt(0.0 - 1.0);", "sqrt"},
	}
	for _, tc := range cases {
		fn := ir.MustBuild(`
shared int A[2];
event e;
lock m;
func main() {
    if (MYPROC == 1) {
        `+tc.body+`
    }
}
`, ir.BuildOptions{Procs: 2})
		for seed := int64(0); seed < 4; seed++ {
			_, err := RunSC(fn, 2, seed)
			var re *RuntimeError
			if !errors.As(err, &re) || re.Proc != 1 || !strings.Contains(re.Msg, tc.msg) {
				t.Errorf("%s, seed %d: got %v, want a *RuntimeError on proc 1 mentioning %q", tc.name, seed, err, tc.msg)
			}
		}
	}

	// Misaligned barriers: whichever processor joins second errs, and the
	// message names its own barrier first.
	fn := ir.MustBuild(`
func main() {
    if (MYPROC == 0) {
        barrier;
    } else {
        barrier;
    }
}
`, ir.BuildOptions{Procs: 2})
	var bars []int
	for _, a := range fn.Accesses {
		if a.Kind == ir.AccBarrier {
			bars = append(bars, a.ID)
		}
	}
	if len(bars) != 2 {
		t.Fatalf("want two barrier sites, got %v", bars)
	}
	seen := map[int]bool{}
	for seed := int64(0); seed < 16; seed++ {
		_, err := RunSC(fn, 2, seed)
		var re *RuntimeError
		if !errors.As(err, &re) || !strings.Contains(re.Msg, "misalignment") {
			t.Fatalf("seed %d: got %v, want a barrier misalignment *RuntimeError", seed, err)
		}
		if own := fmt.Sprintf("a%d vs", bars[re.Proc]); !strings.Contains(re.Msg, own) {
			t.Errorf("seed %d: proc %d reported %q, whose own barrier is a%d", seed, re.Proc, re.Msg, bars[re.Proc])
		}
		seen[re.Proc] = true
	}
	if !seen[0] || !seen[1] {
		t.Errorf("16 seeds blamed only procs %v; each processor should join second under some seed", seen)
	}
}

// TestRunSCMemoryIndependentOfSteps: the walk drops its undo trail after
// every step, so a processor-local loop of millions of steps allocates
// about what a run of a dozen does.
func TestRunSCMemoryIndependentOfSteps(t *testing.T) {
	alloc := func(n int) uint64 {
		fn := ir.MustBuild(fmt.Sprintf(`
shared int S;
func main() {
    local int i = 0;
    while (i < %d) {
        i = i + 1;
    }
    S = i;
}
`, n), ir.BuildOptions{Procs: 1})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := runSC(t, fn, 1, 1)
		runtime.ReadMemStats(&after)
		if got := res.Memory["S"][0].I; got != int64(n) {
			t.Fatalf("S = %d, want %d", got, n)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	short, long := alloc(3), alloc(500_000) // about 10 and 1.5 million steps
	if long > short+1<<20 {
		t.Errorf("a 1.5M-step walk allocated %d bytes, a 10-step one %d: the walk keeps per-step state", long, short)
	}
}

// TestWeakOutcomesAreSC is the paper's system contract, tested end to end:
// for racy programs compiled with the refined delay set, every weak-memory
// outcome (over jittered schedules) must be an outcome some SC
// interleaving produces.
func TestWeakOutcomesAreSC(t *testing.T) {
	srcs := []string{
		// flag/data with polling (Figure 1)
		`
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
`,
		// Dekker-style race: the final values are racy but SC-constrained.
		`
shared int X on 0;
shared int Y on 1;
shared int RX[2];
shared int RY[2];
func main() {
    if (MYPROC == 0) {
        X = 1;
        RY[0] = Y;
    } else {
        Y = 1;
        RX[1] = X;
    }
}
`,
		// Unordered concurrent writes: any interleaving of final values.
		`
shared int A[2];
func main() {
    A[0] = MYPROC + 1;
    A[1] = 2 * MYPROC + 1;
}
`,
		// post/wait pipeline
		`
shared int X;
shared int Y;
event e;
func main() {
    if (MYPROC == 0) {
        X = 10;
        Y = 20;
        post(e);
    } else {
        wait(e);
        local int a = Y;
        local int b = X;
        print("sum", a + b);
    }
}
`,
	}
	for ci, src := range srcs {
		fn := ir.MustBuild(src, ir.BuildOptions{Procs: 2})
		res := syncanal.Analyze(fn, syncanal.Options{})
		prog := codegen.Generate(fn, res.D, codegen.Options{Pipeline: true, OneWay: true}).Prog
		sc, ok := EnumerateSC(fn, 2, 0)
		if !ok {
			t.Fatalf("case %d: SC enumeration truncated", ci)
		}
		for seed := int64(0); seed < 100; seed++ {
			r, err := Run(prog, machine.CM5(2), RunOptions{Jitter: 6.0, Seed: seed})
			if err != nil {
				t.Fatalf("case %d seed %d: %v", ci, seed, err)
			}
			key := OutcomeKey(r.Memory, r.Prints)
			if !sc[key] {
				t.Errorf("case %d seed %d: weak outcome not SC-explainable:\n%s\nSC set size %d",
					ci, seed, key, len(sc))
				break
			}
		}
	}
}

// TestWeakMatchesSCDeterministic checks deterministic programs produce the
// unique SC answer at every optimization level.
func TestWeakMatchesSCDeterministic(t *testing.T) {
	src := `
shared float G[32];
shared float Gn[32];
shared float Res on 0;
event done[8];
lock m;
func main() {
    local int nl = 32 / PROCS;
    local int base = MYPROC * nl;
    for (local int i = 0; i < 32 / PROCS; i = i + 1) {
        G[base + i] = itof(base + i);
    }
    barrier;
    for (local int i = 0; i < 32 / PROCS; i = i + 1) {
        local int g = base + i;
        Gn[g] = G[(g + 31) % 32] + G[(g + 1) % 32];
    }
    barrier;
    local float acc = 0.0;
    for (local int i = 0; i < 32 / PROCS; i = i + 1) {
        acc = acc + Gn[base + i];
    }
    lock(m);
    Res = Res + acc;
    unlock(m);
}
`
	fn := ir.MustBuild(src, ir.BuildOptions{Procs: 4})
	scRes := runSC(t, fn, 4, 7)
	want := FormatSnapshot(scRes.Memory)
	res := syncanal.Analyze(fn, syncanal.Options{})
	variants := []struct {
		delays *delay.Set
		opts   codegen.Options
	}{
		{res.Baseline, codegen.Options{Pipeline: false}},
		{res.D, codegen.Options{Pipeline: true}},
		{res.D, codegen.Options{Pipeline: true, OneWay: true}},
		{res.D, codegen.Options{Pipeline: true, OneWay: true, CSE: true}},
	}
	for vi, v := range variants {
		prog := codegen.Generate(fn, v.delays, v.opts).Prog
		for seed := int64(0); seed < 5; seed++ {
			r, err := Run(prog, machine.CM5(4), RunOptions{Jitter: 3.0, Seed: seed})
			if err != nil {
				t.Fatalf("variant %d: %v", vi, err)
			}
			if got := FormatSnapshot(r.Memory); got != want {
				t.Errorf("variant %d seed %d:\n got %s\nwant %s", vi, seed, got, want)
			}
		}
	}
}
