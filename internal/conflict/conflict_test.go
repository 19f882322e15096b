package conflict

import (
	"testing"

	"repro/internal/ir"
)

func TestFigure1Conflicts(t *testing.T) {
	fn := ir.MustBuild(`
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
`, ir.BuildOptions{})
	cs := Compute(fn)
	// write Data <-> read Data, write Flag <-> read Flag,
	// write Data <-> write Data (self, across procs), write Flag self.
	if !cs.Conflicts(0, 3) {
		t.Error("write Data / read Data should conflict")
	}
	if !cs.Conflicts(1, 2) {
		t.Error("write Flag / read Flag should conflict")
	}
	if cs.Conflicts(0, 1) || cs.Conflicts(2, 3) {
		t.Error("different variables should not conflict")
	}
	if cs.Conflicts(2, 2) {
		t.Error("read Flag / read Flag is read-read: no conflict")
	}
	if !cs.Conflicts(0, 0) {
		t.Error("write Data conflicts with itself across processors")
	}
}

func TestReadReadNoConflict(t *testing.T) {
	fn := ir.MustBuild(`
shared int X;
func main() {
    local int a = X;
    local int b = X;
}
`, ir.BuildOptions{})
	cs := Compute(fn)
	if cs.Conflicts(0, 1) || cs.Conflicts(0, 0) {
		t.Error("read-read pairs must not conflict")
	}
	if cs.Size() != 0 {
		t.Errorf("size = %d, want 0", cs.Size())
	}
}

func TestOwnerComputesNoSelfConflict(t *testing.T) {
	fn := ir.MustBuild(`
shared int A[64];
func main() {
    for (local int i = 0; i < 64 / PROCS; i = i + 1) {
        A[MYPROC * (64 / PROCS) + i] = i;   // a0: distinct across procs
    }
}
`, ir.BuildOptions{Procs: 8})
	cs := Compute(fn)
	if cs.Conflicts(0, 0) {
		t.Error("blocked owner-computes write should not self-conflict")
	}
}

func TestOwnerComputesConservativeWithoutProcs(t *testing.T) {
	fn := ir.MustBuild(`
shared int A[64];
func main() {
    for (local int i = 0; i < 8; i = i + 1) {
        A[MYPROC + i * PROCS] = i;   // cyclic idiom, PROCS unknown
    }
}
`, ir.BuildOptions{}) // Procs unknown: PROCS stays symbolic, index non-affine
	cs := Compute(fn)
	if !cs.Conflicts(0, 0) {
		t.Error("without a known machine size, cyclic writes must stay conservative")
	}
}

func TestArrayReadWriteOverlap(t *testing.T) {
	fn := ir.MustBuild(`
shared int A[64];
func main() {
    local int x = A[MYPROC + 1];   // a0: reads a neighbor
    A[MYPROC] = x;                 // a1: writes own element
}
`, ir.BuildOptions{})
	cs := Compute(fn)
	// Read A[MYPROC+1] on proc p touches p+1's element; write A[MYPROC] on
	// proc q touches q's element: p+1 == q has solutions with p != q.
	if !cs.Conflicts(0, 1) {
		t.Error("neighbor read must conflict with owner write")
	}
	if cs.Conflicts(1, 1) {
		t.Error("A[MYPROC] write should not self-conflict")
	}
	if cs.Conflicts(0, 0) {
		t.Error("read-read never conflicts")
	}
}

func TestSyncConflicts(t *testing.T) {
	fn := ir.MustBuild(`
event e;
event f;
lock l;
func main() {
    post(e);   // a0
    wait(e);   // a1
    post(f);   // a2
    lock(l);   // a3
    unlock(l); // a4
    barrier;   // a5
    barrier;   // a6
}
`, ir.BuildOptions{})
	cs := Compute(fn)
	if !cs.Conflicts(0, 1) {
		t.Error("post/wait on same event should conflict")
	}
	if cs.Conflicts(1, 2) {
		t.Error("wait(e)/post(f) different events should not conflict")
	}
	if cs.Conflicts(0, 2) {
		t.Error("post(e)/post(f) different events should not conflict")
	}
	if !cs.Conflicts(3, 4) {
		t.Error("lock/unlock on same lock should conflict")
	}
	if !cs.Conflicts(5, 6) || !cs.Conflicts(5, 5) {
		t.Error("barriers conflict with each other and themselves")
	}
	if cs.Conflicts(0, 3) {
		t.Error("event and lock accesses should not conflict")
	}
	if cs.Conflicts(0, 5) {
		t.Error("event and barrier accesses should not conflict")
	}
}

func TestWaitWaitNoConflict(t *testing.T) {
	fn := ir.MustBuild(`
event e;
func main() {
    wait(e);   // a0
    wait(e);   // a1
}
`, ir.BuildOptions{})
	cs := Compute(fn)
	if cs.Conflicts(0, 1) || cs.Conflicts(0, 0) {
		t.Error("wait/wait is read-read on the event: no conflict")
	}
}

func TestDataVsSyncNoConflict(t *testing.T) {
	fn := ir.MustBuild(`
shared int X;
event e;
func main() {
    X = 1;     // a0
    post(e);   // a1
}
`, ir.BuildOptions{})
	cs := Compute(fn)
	if cs.Conflicts(0, 1) {
		t.Error("data access and event access should not conflict")
	}
}

func TestEventArrayDisambiguation(t *testing.T) {
	fn := ir.MustBuild(`
event es[8];
func main() {
    post(es[MYPROC]);   // a0: each proc posts its own event
    wait(es[3]);        // a1
}
`, ir.BuildOptions{})
	cs := Compute(fn)
	// post(es[MYPROC]) from p and wait(es[3]) from q collide when p == 3,
	// q != 3: conservative conflict stays.
	if !cs.Conflicts(0, 1) {
		t.Error("post(es[MYPROC]) can pair with wait(es[3]) across procs")
	}
	// post(es[MYPROC]) self: distinct across procs.
	if cs.Conflicts(0, 0) {
		t.Error("per-processor event posts should not self-conflict")
	}
}

func TestPartnersAndPairs(t *testing.T) {
	fn := ir.MustBuild(`
shared int X;
func main() {
    X = 1;             // a0
    local int v = X;   // a1
}
`, ir.BuildOptions{})
	cs := Compute(fn)
	if got := cs.Row(0); got[0] != 0b11 { // conflicts with itself and the read
		t.Errorf("row(0) = %b, want write-self and read", got[0])
	}
	pairs := cs.Pairs()
	// (0,0) and (0,1)
	if len(pairs) != 2 {
		t.Errorf("pairs = %v, want 2 unordered pairs", pairs)
	}
	if cs.N() != 2 {
		t.Errorf("N = %d, want 2", cs.N())
	}
}

// Pairs returns the unordered conflict pairs (a <= b).
func (s *Set) Pairs() [][2]int {
	var out [][2]int
	for a := 0; a < s.n; a++ {
		for b := a; b < s.n; b++ {
			if s.Conflicts(a, b) {
				out = append(out, [2]int{a, b})
			}
		}
	}
	return out
}
