package delay

import (
	"testing"

	"repro/internal/conflict"
	"repro/internal/ir"
)

func setup(t *testing.T, src string, procs int) (*ir.Fn, *ir.AccessGraph, *conflict.Set) {
	t.Helper()
	fn := ir.MustBuild(src, ir.BuildOptions{Procs: procs})
	return fn, ir.BuildAccessGraph(fn), conflict.Compute(fn)
}

const figure1 = `
shared int Data = 0;
shared int Flag = 0;
func main() {
    local int v = 0;
    if (MYPROC == 0) {
        Data = 1;    // a0
        Flag = 1;    // a1
    } else {
        v = Flag;    // a2
        v = Data;    // a3
    }
}
`

func TestFigure1Delays(t *testing.T) {
	_, ag, cs := setup(t, figure1, 0)
	d := Compute(ag, cs, Constraints{})
	// The two delay edges that make Figure 1 sequentially consistent:
	// the writes must stay ordered, and so must the reads.
	if !d.Has(0, 1) {
		t.Errorf("missing delay [write Data -> write Flag]\n%s", d)
	}
	if !d.Has(2, 3) {
		t.Errorf("missing delay [read Flag -> read Data]\n%s", d)
	}
}

func TestFigure1DelaysExact(t *testing.T) {
	_, ag, cs := setup(t, figure1, 0)
	d := Compute(ag, cs, Constraints{Exact: true})
	if !d.Has(0, 1) || !d.Has(2, 3) {
		t.Errorf("exact search missing Figure 1 delays\n%s", d)
	}
}

func TestFigure4NoDelays(t *testing.T) {
	// Figure 4 of the paper: no delay constraints required because P ∪ C
	// has no critical cycles (Data is never written).
	_, ag, cs := setup(t, `
shared int Data = 0;
shared int Flag = 0;
func main() {
    local int v = 0;
    if (MYPROC == 0) {
        v = Data;    // a0
        Flag = 1;    // a1
    } else {
        v = Flag;    // a2
        v = Data;    // a3
    }
}
`, 0)
	d := Compute(ag, cs, Constraints{})
	if d.Size() != 0 {
		t.Errorf("expected empty delay set, got:\n%s", d)
	}
}

func TestWriteThenReadSameVar(t *testing.T) {
	// p: X=1; r=X  — if both accesses reorder, two processors can each
	// miss the other's write in a non-SC way; the delay must be kept.
	_, ag, cs := setup(t, `
shared int X;
func main() {
    X = MYPROC + 1;    // a0
    local int r = X;   // a1
}
`, 0)
	d := Compute(ag, cs, Constraints{})
	if !d.Has(0, 1) {
		t.Errorf("missing delay [write X -> read X]\n%s", d)
	}
}

func TestIndependentVariablesNoDelay(t *testing.T) {
	// Accesses to unrelated variables with no interleaving hazards:
	// X only written, Y only written (write-write self conflicts exist),
	// but no read observes them, so back-paths need conflicting reads.
	_, ag, cs := setup(t, `
shared int X;
shared int Y;
func main() {
    X = 1;    // a0
    Y = 2;    // a1
}
`, 0)
	d := Compute(ag, cs, Constraints{})
	// Back-path for [a0,a1]: a1 -C-> a1' requires a conflict partner of a1
	// that reaches a conflict partner of a0. a1 conflicts only with itself;
	// from a1, program order continues to nothing. A back-path
	// a1 -C-> a1 -P-> ... -C-> a0 does not exist (a1 has no P successor).
	if d.Has(0, 1) {
		t.Errorf("unexpected delay between writes to unrelated variables:\n%s", d)
	}
}

func TestParallelWritesNeedNoDelay(t *testing.T) {
	// p: X=p; Y=p on every processor. Any combination of final values is
	// explainable by an SC interleaving, so Shasha–Snir keeps no delay —
	// there is no read to close a cycle.
	_, ag, cs := setup(t, `
shared int X;
shared int Y;
func main() {
    X = MYPROC;    // a0
    Y = MYPROC;    // a1
}
`, 0)
	d := Compute(ag, cs, Constraints{})
	if d.Has(0, 1) {
		t.Errorf("writes to X and Y with no observers should not be delayed:\n%s", d)
	}
}

func TestDekkerDelays(t *testing.T) {
	// The Dekker pattern: each side writes one flag and reads the other.
	// Both [write -> read] pairs must be delayed.
	_, ag, cs := setup(t, `
shared int X;
shared int Y;
func main() {
    local int r = 0;
    if (MYPROC == 0) {
        X = 1;     // a0
        r = Y;     // a1
    } else {
        Y = 1;     // a2
        r = X;     // a3
    }
}
`, 0)
	d := Compute(ag, cs, Constraints{})
	if !d.Has(0, 1) || !d.Has(2, 3) {
		t.Errorf("Dekker delays missing:\n%s", d)
	}
}

func TestLoopSelfDelay(t *testing.T) {
	// A write in a loop whose address cannot be disambiguated conflicts
	// with itself; successive iterations must be ordered.
	_, ag, cs := setup(t, `
shared int A[16];
func main() {
    local int j = MYPROC;
    for (local int i = 0; i < 4; i = i + 1) {
        A[j] = i;    // a0: j unknown, self-conflicting
    }
}
`, 0)
	d := Compute(ag, cs, Constraints{})
	if !d.Has(0, 0) {
		t.Errorf("missing self delay for loop-carried conflicting write:\n%s", d)
	}
}

func TestOwnerComputesLoopNoSelfDelay(t *testing.T) {
	_, ag, cs := setup(t, `
shared int A[64];
func main() {
    for (local int i = 0; i < 64 / PROCS; i = i + 1) {
        A[MYPROC * (64 / PROCS) + i] = i;    // a0
    }
}
`, 8)
	d := Compute(ag, cs, Constraints{})
	if d.Has(0, 0) {
		t.Errorf("owner-computes loop write should not self-delay:\n%s", d)
	}
}

func TestOrientationKillsBackPath(t *testing.T) {
	// Figure 1 again, but orient the Flag conflict edge (as if a
	// precedence relation proved write-Flag happens before read-Flag):
	// the back-path for [a0,a1] needed read-Flag -> ... and the one for
	// [a2,a3] needed ... -> write-Data; orientation of both conflict
	// edges (write->read only) kills both delays.
	_, ag, cs := setup(t, figure1, 0)
	oriented := func(x, y int) bool {
		// Allow conflict traversal only from write (0,1) to read (2,3).
		return x < 2 && y >= 2 || x < 2 && y < 2 || false
	}
	d := Compute(ag, cs, directedQuery(ag, cs, oriented, nil, nil))
	if d.Has(2, 3) {
		t.Errorf("orientation should kill the read-side delay:\n%s", d)
	}
}

func TestRemovalKillsBackPath(t *testing.T) {
	// Removing the intermediate access that every back-path needs
	// eliminates the delay.
	_, ag, cs := setup(t, figure1, 0)
	removed := func(a, b, z int) bool { return z == 2 } // drop read Flag
	both := func(x, y int) bool { return true }
	d := Compute(ag, cs, directedQuery(ag, cs, both, removed, nil))
	// Back-path for [a0,a1] was a1 -C-> a2 -P-> a3 -C-> a0.
	if d.Has(0, 1) {
		t.Errorf("removal of a2 should kill the write-side delay:\n%s", d)
	}
}

func TestSkipEndpoints(t *testing.T) {
	// Skipping write-Data drops exactly the pairs it is an endpoint of; the
	// read-side delay, whose back-path still runs through it, stays.
	// Keeping write-Data is the other half of the same split.
	_, ag, cs := setup(t, figure1, 0)
	d := Compute(ag, cs, Constraints{Endpoints: EndpointFilter{IDs: []int{0}}})
	if d.Has(0, 1) || !d.Has(2, 3) {
		t.Errorf("skipping a0 should drop [a0,a1] and keep [a2,a3]:\n%s", d)
	}
	k := Compute(ag, cs, Constraints{Endpoints: EndpointFilter{IDs: []int{0}, Keep: true}})
	if !k.Has(0, 1) || k.Has(2, 3) {
		t.Errorf("keeping a0 should keep [a0,a1] and drop [a2,a3]:\n%s", k)
	}
}

func TestExactNotLargerThanPoly(t *testing.T) {
	srcs := []string{
		figure1,
		`
shared int X;
shared int Y;
shared int Z;
func main() {
    X = 1;
    local int a = Y;
    Y = 2;
    local int b = Z;
    Z = 3;
    local int c = X;
}
`,
		`
shared int A[8];
event e;
func main() {
    A[MYPROC % 8] = 1;
    post(e);
    wait(e);
    local int v = A[(MYPROC + 1) % 8];
}
`,
	}
	for i, src := range srcs {
		_, ag, cs := setup(t, src, 4)
		poly := Compute(ag, cs, Constraints{})
		exact := Compute(ag, cs, Constraints{Exact: true})
		for _, p := range exact.Pairs() {
			if !poly.Has(p.A, p.B) {
				t.Errorf("case %d: exact found [%d,%d] missing from poly (poly must over-approximate)", i, p.A, p.B)
			}
		}
	}
}

func TestSetOperations(t *testing.T) {
	fn := ir.MustBuild(`
shared int X;
func main() {
    X = 1;
    X = 2;
    X = 3;
}
`, ir.BuildOptions{})
	s1 := NewSet(fn)
	s1.Add(0, 1)
	s2 := NewSet(fn)
	s2.Add(1, 2)
	u := s1.Union(s2)
	if !u.Has(0, 1) || !u.Has(1, 2) || u.Size() != 2 {
		t.Errorf("union wrong: %s", u)
	}
	pairs := u.Pairs()
	if len(pairs) != 2 || pairs[0] != (Pair{0, 1}) {
		t.Errorf("pairs not sorted: %v", pairs)
	}
	if u.String() == "" {
		t.Error("String should render edges")
	}
}

func TestBarrierDelaysAgainstData(t *testing.T) {
	// write X ; barrier ; read X
	// D1-style pairs: the write must complete before the barrier
	// (the back-path uses the barrier self-conflict).
	_, ag, cs := setup(t, `
shared int X;
func main() {
    X = MYPROC;          // a0
    barrier;             // a1
    local int v = X;     // a2
}
`, 0)
	d := Compute(ag, cs, Constraints{})
	if !d.Has(0, 1) {
		t.Errorf("missing delay [write X -> barrier]:\n%s", d)
	}
	if !d.Has(1, 2) {
		t.Errorf("missing delay [barrier -> read X]:\n%s", d)
	}
}
