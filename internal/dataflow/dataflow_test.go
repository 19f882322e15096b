package dataflow

import (
	"testing"

	"repro/internal/ir"
)

// localByPrefix finds a local whose name starts with the given prefix.
func localByPrefix(t *testing.T, fn *ir.Fn, prefix string) ir.LocalID {
	t.Helper()
	for _, l := range fn.Locals {
		if len(l.Name) >= len(prefix) && l.Name[:len(prefix)] == prefix {
			return l.ID
		}
	}
	t.Fatalf("local %s* not found", prefix)
	return 0
}

func TestLivenessBasic(t *testing.T) {
	fn := ir.MustBuild(`
shared int X;
func main() {
    local int a = 1;
    local int b = 2;
    X = a;
}
`, ir.BuildOptions{})
	lv := ComputeLiveness(fn)
	a := localByPrefix(t, fn, "a.")
	b := localByPrefix(t, fn, "b.")
	entry := fn.Blocks[0]
	// After its definition (idx 0), a is live (used by the store).
	if !lv.LiveAfter(entry, 0, a) {
		t.Error("a should be live after its definition")
	}
	// b is never used.
	if lv.LiveAfter(entry, 1, b) {
		t.Error("b should be dead")
	}
	// After the store, nothing is live.
	if lv.LiveAfter(entry, len(entry.Stmts)-1, a) {
		t.Error("a should be dead after its last use")
	}
}

func TestLivenessAcrossBranch(t *testing.T) {
	fn := ir.MustBuild(`
shared int X;
func main() {
    local int a = 1;
    if (MYPROC == 0) {
        X = a;
    }
}
`, ir.BuildOptions{})
	lv := ComputeLiveness(fn)
	a := localByPrefix(t, fn, "a.")
	entry := fn.Blocks[0]
	if !lv.LiveAfter(entry, 0, a) {
		t.Error("a is used in a branch: live at entry exit")
	}
}

func TestLivenessBranchCondition(t *testing.T) {
	fn := ir.MustBuild(`
func main() {
    local int c = MYPROC;
    while (c > 0) {
        c = c - 1;
    }
}
`, ir.BuildOptions{})
	lv := ComputeLiveness(fn)
	c := localByPrefix(t, fn, "c.")
	entry := fn.Blocks[0]
	if !lv.LiveAfter(entry, 0, c) {
		t.Error("c feeds the loop condition: must be live")
	}
}

func TestLivenessLoopCarried(t *testing.T) {
	fn := ir.MustBuild(`
shared int X;
func main() {
    local int s = 0;
    for (local int i = 0; i < 4; i = i + 1) {
        s = s + 1;
    }
    X = s;
}
`, ir.BuildOptions{})
	lv := ComputeLiveness(fn)
	s := localByPrefix(t, fn, "s.")
	// s is live out of the loop body block (read next iteration and after).
	for _, b := range fn.Blocks {
		for i, st := range b.Stmts {
			if as, ok := st.(*ir.Assign); ok && as.Dst == s && b.ID != 0 {
				if !lv.LiveAfter(b, i, s) {
					t.Error("loop-carried s should be live after its update")
				}
			}
		}
	}
}

func TestLivenessArrayConservative(t *testing.T) {
	// SetElem is a partial definition: the array stays live (other
	// elements survive).
	fn := ir.MustBuild(`
shared int X;
func main() {
    local int buf[4];
    buf[0] = 1;
    buf[1] = 2;
    X = buf[0];
}
`, ir.BuildOptions{})
	lv := ComputeLiveness(fn)
	buf := localByPrefix(t, fn, "buf.")
	entry := fn.Blocks[0]
	if !lv.LiveAfter(entry, 0, buf) {
		t.Error("array must remain live across partial updates")
	}
}
