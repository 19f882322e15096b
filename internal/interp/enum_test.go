package interp

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/ir"
)

func TestEnumerateSCTwoWriters(t *testing.T) {
	fn := ir.MustBuild(`
shared int X;
func main() {
    X = MYPROC + 1;
}
`, ir.BuildOptions{Procs: 2})
	outcomes, ok := EnumerateSC(fn, 2, 0)
	if !ok {
		t.Fatal("tiny program should enumerate")
	}
	// Exactly two outcomes: X = 1 or X = 2.
	if len(outcomes) != 2 {
		t.Fatalf("got %d outcomes, want 2: %v", len(outcomes), keys(outcomes))
	}
	has1, has2 := false, false
	for k := range outcomes {
		if strings.Contains(k, "X=[1]") {
			has1 = true
		}
		if strings.Contains(k, "X=[2]") {
			has2 = true
		}
	}
	if !has1 || !has2 {
		t.Errorf("missing an outcome: %v", keys(outcomes))
	}
}

func TestEnumerateSCExcludesViolation(t *testing.T) {
	// The flag/data program: the exact SC set never contains "data 0".
	fn := ir.MustBuild(`
shared int Data on 1 = 0;
shared int Flag on 1 = 0;
func main() {
    local int v = 0;
    if (MYPROC == 0) {
        Data = 1;
        Flag = 1;
    } else {
        if (Flag == 1) {
            v = Data;
            print("data", v);
        }
    }
}
`, ir.BuildOptions{Procs: 2})
	outcomes, ok := EnumerateSC(fn, 2, 0)
	if !ok {
		t.Fatal("program should enumerate")
	}
	sawPrint := false
	for k := range outcomes {
		if strings.Contains(k, "data 0") {
			t.Errorf("SC enumeration contains the violation outcome: %s", k)
		}
		if strings.Contains(k, "data 1") {
			sawPrint = true
		}
	}
	if !sawPrint {
		t.Error("the consumer should sometimes see the flag set")
	}
}

func TestEnumerateSCDekkerComplete(t *testing.T) {
	// Dekker: r0/r1 may be (1,1), (0,1), (1,0) under SC but never (0,0).
	fn := ir.MustBuild(`
shared int X;
shared int Y;
shared int R[2];
func main() {
    if (MYPROC == 0) {
        X = 1;
        R[0] = Y;
    } else {
        Y = 1;
        R[1] = X;
    }
}
`, ir.BuildOptions{Procs: 2})
	outcomes, ok := EnumerateSC(fn, 2, 0)
	if !ok {
		t.Fatal("program should enumerate")
	}
	want := map[string]bool{"R=[0 1]": false, "R=[1 0]": false, "R=[1 1]": false}
	for k := range outcomes {
		if strings.Contains(k, "R=[0 0]") {
			t.Errorf("SC enumeration contains the forbidden Dekker outcome")
		}
		for w := range want {
			if strings.Contains(k, w) {
				want[w] = true
			}
		}
	}
	for w, seen := range want {
		if !seen {
			t.Errorf("missing SC outcome %s (set: %v)", w, keys(outcomes))
		}
	}
}

func TestEnumerateSCBarrierAndLock(t *testing.T) {
	// With proper synchronization the program is determinate: exactly one
	// outcome.
	fn := ir.MustBuild(`
shared int A[2];
shared int T;
lock m;
func main() {
    A[MYPROC] = MYPROC + 5;
    barrier;
    lock(m);
    T = T + A[(MYPROC + 1) % 2];
    unlock(m);
}
`, ir.BuildOptions{Procs: 2})
	outcomes, ok := EnumerateSC(fn, 2, 0)
	if !ok {
		t.Fatal("program should enumerate")
	}
	if len(outcomes) != 1 {
		t.Fatalf("determinate program has %d outcomes: %v", len(outcomes), keys(outcomes))
	}
	for k := range outcomes {
		if !strings.Contains(k, "T=[11]") {
			t.Errorf("T should be 11: %s", k)
		}
	}
}

func TestEnumerateSCBudget(t *testing.T) {
	// A big loop nest exceeds a tiny state budget.
	fn := ir.MustBuild(`
shared int S;
func main() {
    for (local int i = 0; i < 50; i = i + 1) {
        S = S + 1;
    }
}
`, ir.BuildOptions{Procs: 2})
	if _, ok := EnumerateSC(fn, 2, 50); ok {
		t.Error("tiny budget should report failure")
	}
}

// manyStatesSrc races two accumulators over a short loop: a few thousand
// distinct values of T at every pair of loop positions, millions of states.
const manyStatesSrc = `
shared int S;
shared int T;
func main() {
    for (local int i = 0; i < 6; i = i + 1) {
        S = S + 1;
        T = T + S;
    }
}
`

// TestEnumerateSCDeadline: the enumerator looks at its context every
// enumPollStates states, so an exploration that would visit 10⁵ states and
// more gives up within a poll interval of a deadline, with an error
// wrapping the context's.
func TestEnumerateSCDeadline(t *testing.T) {
	fn := ir.MustBuild(manyStatesSrc, ir.BuildOptions{Procs: 2})
	if _, st, ok := EnumerateSCStats(fn, 2, 100_000); ok || st.States <= 100_000 {
		t.Fatalf("enumeration ended after %d states (ok=%v): the test needs one of more than 100000", st.States, ok)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	outcomes, st, ok, err := EnumerateSCContext(ctx, fn, 2, 0)
	took := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) || ok || outcomes != nil {
		t.Fatalf("outcomes %v, ok %v, err %v after %d states; want none, false and an error wrapping context.DeadlineExceeded", outcomes, ok, err, st.States)
	}
	if took > 100*time.Millisecond {
		t.Errorf("gave up %v after a 1 ms deadline (%d states), want within 100 ms", took, st.States)
	}
	if st.States%enumPollStates != 0 || !st.Truncated {
		t.Errorf("stopped at %d states, truncated=%v: want a multiple of %d and truncated", st.States, st.Truncated, enumPollStates)
	}

	// A context already canceled stops the first poll; one that never is
	// changes nothing.
	ctx, cancel = context.WithCancel(context.Background())
	cancel()
	if _, st, _, err := EnumerateSCContext(ctx, fn, 2, 0); !errors.Is(err, context.Canceled) || st.States != enumPollStates {
		t.Errorf("canceled from the start: err %v after %d states, want context.Canceled after %d", err, st.States, enumPollStates)
	}
}

func TestEnumerateSCAgreesWithSampling(t *testing.T) {
	// Sampled outcomes are a subset of the enumerated set.
	fn := ir.MustBuild(`
shared int X;
shared int Y;
func main() {
    X = MYPROC;
    Y = X + 1;
}
`, ir.BuildOptions{Procs: 2})
	exact, ok := EnumerateSC(fn, 2, 0)
	if !ok {
		t.Fatal("should enumerate")
	}
	for seed := int64(0); seed < 200; seed++ {
		res, err := RunSC(fn, 2, seed)
		if err != nil {
			t.Fatal(err)
		}
		k := outcomeKey(res.Memory, res.Prints)
		if !exact[k] {
			t.Fatalf("sampled outcome %s missing from exact set %v", k, keys(exact))
		}
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
