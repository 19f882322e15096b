package codegen

import (
	"strings"
	"testing"
	"time"

	"repro/internal/ir"
	"repro/internal/syncanal"
)

func TestHoistRMWPairs(t *testing.T) {
	// Two read-modify-write pairs: without hoisting the second get cannot
	// issue until the first's value is consumed; with hoisting both gets
	// issue back-to-back.
	src := `
shared int A[16];
func main() {
    local int buf[4];
    local int a = A[(MYPROC + 1) % 16];
    buf[0] = a;
    local int b = A[(MYPROC + 2) % 16];
    buf[1] = b;
}
`
	fn := ir.MustBuild(src, ir.BuildOptions{Procs: 4})
	res := syncanal.Analyze(fn, syncanal.Options{})
	hoisted := Generate(fn, res.D, Options{Pipeline: true, Hoist: true})
	if hoisted.Stats.InitsHoisted == 0 {
		t.Fatalf("expected hoisting:\n%s", hoisted.Prog)
	}
	seq := stmtSeq(hoisted.Prog)
	g1 := indexOfPrefix(seq, "get_ctr", 0)
	g2 := indexOfPrefix(seq, "get_ctr", g1+1)
	if g2 != g1+1 {
		t.Errorf("gets should be adjacent after hoisting:\n%s", hoisted.Prog)
	}
}

func TestHoistRespectsDefUse(t *testing.T) {
	// The get's index depends on a local defined just above: no hoist.
	src := `
shared int A[16];
func main() {
    local int i = MYPROC * 2;
    local int v = A[i % 16];
    local int c = v;
}
`
	fn := ir.MustBuild(src, ir.BuildOptions{Procs: 4})
	res := syncanal.Analyze(fn, syncanal.Options{})
	r := Generate(fn, res.D, Options{Pipeline: true, Hoist: true})
	seq := stmtSeq(r.Prog)
	gi := indexOfPrefix(seq, "get_ctr", 0)
	// The definition of i must still precede the get.
	di := -1
	for i, s := range seq {
		if strings.HasPrefix(s, "i.") {
			di = i
		}
	}
	if di == -1 || gi < di {
		t.Errorf("get hoisted above its index definition:\n%s", r.Prog)
	}
}

func TestHoistRespectsDelays(t *testing.T) {
	// Dekker: the read of Y must not be initiated before the write of X
	// completes; the delay edge blocks hoisting.
	src := `
shared int X;
shared int Y;
func main() {
    local int r = 0;
    if (MYPROC == 0) {
        X = 1;
        r = Y;
    } else {
        Y = 1;
        r = X;
    }
}
`
	fn := ir.MustBuild(src, ir.BuildOptions{Procs: 2})
	res := syncanal.Analyze(fn, syncanal.Options{})
	r := Generate(fn, res.D, Options{Pipeline: true, Hoist: true})
	seq := stmtSeq(r.Prog)
	// In each branch the put must still precede the get.
	for i, s := range seq {
		if strings.HasPrefix(s, "get_ctr") {
			// find the closest preceding put in the same block dump
			foundPut := false
			for j := i - 1; j >= 0 && !strings.HasPrefix(seq[j], "b"); j-- {
				if strings.HasPrefix(seq[j], "put_ctr") {
					foundPut = true
				}
			}
			_ = foundPut
		}
		_ = i
	}
	// Structural check: count inversions via access IDs — the write's
	// a-number is lower than the read's within each branch.
	gi := indexOfPrefix(seq, "get_ctr", 0)
	pi := indexOfPrefix(seq, "put_ctr", 0)
	if gi >= 0 && pi >= 0 && gi < pi {
		t.Errorf("get hoisted above a delayed write:\n%s", r.Prog)
	}
	if r.Stats.InitsHoisted != 0 {
		t.Errorf("nothing should hoist here, got %d:\n%s", r.Stats.InitsHoisted, r.Prog)
	}
}

func TestHoistRespectsSameProcAlias(t *testing.T) {
	// A read of a possibly-identical address must not move above the
	// write (it would observe the old value).
	src := `
shared int A[16];
func main() {
    local int j = MYPROC % 16;
    A[j] = 7;
    local int v = A[(j + 16) % 16];
    local int c = v;
}
`
	fn := ir.MustBuild(src, ir.BuildOptions{Procs: 4})
	res := syncanal.Analyze(fn, syncanal.Options{})
	r := Generate(fn, res.D, Options{Pipeline: true, Hoist: true})
	seq := stmtSeq(r.Prog)
	gi := indexOfPrefix(seq, "get_ctr", 0)
	pi := indexOfPrefix(seq, "put_ctr", 0)
	if gi < pi {
		t.Errorf("aliasing read hoisted above write:\n%s", r.Prog)
	}
}

func TestHoistTerminatesOnAdjacentInitiations(t *testing.T) {
	// Regression: two independent initiations must not swap forever.
	src := `
shared int X;
shared int Y;
func main() {
    X = 1;
    Y = 2;
    X = 3;
    Y = 4;
}
`
	fn := ir.MustBuild(src, ir.BuildOptions{Procs: 2})
	res := syncanal.Analyze(fn, syncanal.Options{})
	done := make(chan struct{})
	go func() {
		Generate(fn, res.D, Options{Pipeline: true, Hoist: true})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("hoisting did not terminate")
	}
}

func TestHoistImprovesNaiveCopyLoop(t *testing.T) {
	// A naive remote copy loop (no hand unrolling): hoisting inside the
	// unrolled-by-source body packs the gets together.
	src := `
shared int A[32];
shared int B[32];
func main() {
    local int x0 = A[(MYPROC * 4 + 11) % 32];
    B[MYPROC * 4 + 0] = x0;
    local int x1 = A[(MYPROC * 4 + 12) % 32];
    B[MYPROC * 4 + 1] = x1;
    local int x2 = A[(MYPROC * 4 + 13) % 32];
    B[MYPROC * 4 + 2] = x2;
    local int x3 = A[(MYPROC * 4 + 14) % 32];
    B[MYPROC * 4 + 3] = x3;
}
`
	fn := ir.MustBuild(src, ir.BuildOptions{Procs: 8})
	res := syncanal.Analyze(fn, syncanal.Options{})
	hoisted := Generate(fn, res.D, Options{Pipeline: true, Hoist: true})
	if hoisted.Stats.InitsHoisted == 0 {
		t.Errorf("expected hoists:\n%s", hoisted.Prog)
	}
	// All four gets end up adjacent: each was separated by a put before.
	seq := stmtSeq(hoisted.Prog)
	first := indexOfPrefix(seq, "get_ctr", 0)
	for k := 1; k < 4; k++ {
		if !strings.HasPrefix(seq[first+k], "get_ctr") {
			t.Errorf("gets not packed after hoisting:\n%s", hoisted.Prog)
			break
		}
	}
}
