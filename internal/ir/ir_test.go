package ir

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/source"
)

func TestBuildFigure1(t *testing.T) {
	fn := MustBuild(`
shared int Data = 0;
shared int Flag = 0;
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
    }
}
`, BuildOptions{})
	// Accesses: write Data, write Flag, read Flag, read Data.
	if len(fn.Accesses) != 4 {
		t.Fatalf("got %d accesses, want 4:\n%s", len(fn.Accesses), fn)
	}
	kinds := []AccessKind{AccWrite, AccWrite, AccRead, AccRead}
	names := []string{"Data", "Flag", "Flag", "Data"}
	for i, a := range fn.Accesses {
		if a.Kind != kinds[i] || a.Sym.Name != names[i] {
			t.Errorf("access %d = %s, want %s %s", i, a, kinds[i], names[i])
		}
		if a.Blk == nil {
			t.Errorf("access %d has no block position", i)
		}
	}
}

func TestBuildLoadHoisting(t *testing.T) {
	fn := MustBuild(`
shared int X;
shared int Y;
func main() {
    local int a = X + Y * 2;
}
`, BuildOptions{})
	// Two loads then an assign in the entry block.
	entry := fn.Blocks[0]
	var loads, assigns int
	for _, s := range entry.Stmts {
		switch s.(type) {
		case *Load:
			loads++
		case *Assign:
			assigns++
		}
	}
	if loads != 2 {
		t.Errorf("got %d loads, want 2\n%s", loads, fn)
	}
	if assigns < 1 {
		t.Errorf("no assign emitted\n%s", fn)
	}
}

func TestBuildProcsFolding(t *testing.T) {
	fn := MustBuild(`
shared int A[64];
func main() {
    A[MYPROC * (64 / PROCS)] = 1;
}
`, BuildOptions{Procs: 8})
	acc := fn.Accesses[0]
	af := AffineOf(acc.Index)
	if !af.OK || af.M != 8 || af.C != 0 {
		t.Errorf("index affine = %+v, want M=8 C=0\n%s", af, fn)
	}
}

func TestBuildProcsSymbolic(t *testing.T) {
	fn := MustBuild(`
func main() {
    local int p = PROCS;
}
`, BuildOptions{})
	found := false
	for _, s := range fn.Blocks[0].Stmts {
		if as, ok := s.(*Assign); ok {
			if _, isProcs := as.Src.(*Procs); isProcs {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("PROCS not kept symbolic:\n%s", fn)
	}
}

func TestBuildCountedLoopRange(t *testing.T) {
	fn := MustBuild(`
shared int A[100];
func main() {
    for (local int i = 0; i < 10; i = i + 1) {
        A[i] = i;
    }
}
`, BuildOptions{})
	if len(fn.Ranges) != 1 {
		t.Fatalf("got %d ranges, want 1", len(fn.Ranges))
	}
	for _, r := range fn.Ranges {
		if r.Lo != 0 || r.Hi != 10 {
			t.Errorf("range = %+v, want [0,10)", r)
		}
	}
}

func TestBuildLoopRangeWithProcs(t *testing.T) {
	fn := MustBuild(`
shared int A[64];
func main() {
    for (local int i = 0; i < 64 / PROCS; i = i + 1) {
        A[MYPROC * (64 / PROCS) + i] = i;
    }
}
`, BuildOptions{Procs: 8})
	if len(fn.Ranges) != 1 {
		t.Fatalf("got %d ranges, want 1 (bound should fold with PROCS known)", len(fn.Ranges))
	}
	for _, r := range fn.Ranges {
		if r.Lo != 0 || r.Hi != 8 {
			t.Errorf("range = %+v, want [0,8)", r)
		}
	}
	// The write A[MYPROC*8+i] with i in [0,8) is distinct across processors.
	acc := fn.Accesses[0]
	if !DistinctAcrossProcs(fn, acc.Index, acc.Index) {
		t.Errorf("blocked owner-computes write not disambiguated\n%s", fn)
	}
}

func TestBuildLoopRangeNotRecordedWhenVarWritten(t *testing.T) {
	fn := MustBuild(`
func main() {
    for (local int i = 0; i < 10; i = i + 1) {
        i = i + 2;
    }
}
`, BuildOptions{})
	if len(fn.Ranges) != 0 {
		t.Errorf("range recorded for loop that writes its induction variable")
	}
}

func TestBuildWhileNoRange(t *testing.T) {
	fn := MustBuild(`
func main() {
    local int i = 0;
    while (i < 10) { i = i + 1; }
}
`, BuildOptions{})
	if len(fn.Ranges) != 0 {
		t.Errorf("while loop should not produce ranges")
	}
}

func TestBuildInlining(t *testing.T) {
	fn := MustBuild(`
shared int X;
func get2() int { return 2; }
func addx(int k) int { return X + k; }
func main() {
    local int r = addx(get2());
}
`, BuildOptions{})
	// After inlining there is exactly one shared access (read X).
	if len(fn.Accesses) != 1 || fn.Accesses[0].Kind != AccRead || fn.Accesses[0].Sym.Name != "X" {
		t.Fatalf("accesses = %v, want one read of X\n%s", fn.Accesses, fn)
	}
}

func TestBuildInliningVoidAndEarlyReturn(t *testing.T) {
	fn := MustBuild(`
shared int X;
func maybe(int k) {
    if (k == 0) {
        return;
    }
    X = k;
}
func main() {
    maybe(MYPROC);
}
`, BuildOptions{})
	if len(fn.Accesses) != 1 {
		t.Fatalf("accesses = %d, want 1\n%s", len(fn.Accesses), fn)
	}
}

func TestBuildSyncOps(t *testing.T) {
	fn := MustBuild(`
event e;
event es[4];
lock l;
func main() {
    barrier;
    post(e);
    wait(e);
    post(es[MYPROC]);
    lock(l);
    unlock(l);
}
`, BuildOptions{})
	want := []AccessKind{AccBarrier, AccPost, AccWait, AccPost, AccLock, AccUnlock}
	if len(fn.Accesses) != len(want) {
		t.Fatalf("got %d accesses, want %d", len(fn.Accesses), len(want))
	}
	for i, a := range fn.Accesses {
		if a.Kind != want[i] {
			t.Errorf("access %d = %s, want %s", i, a.Kind, want[i])
		}
		if !a.Kind.IsSync() {
			t.Errorf("access %d should be sync", i)
		}
	}
	if fn.Accesses[3].Index == nil {
		t.Error("post(es[MYPROC]) lost its index")
	}
}

func TestDomTreeStraightLine(t *testing.T) {
	fn := MustBuild(`
shared int X;
func main() {
    X = 1;
    X = 2;
}
`, BuildOptions{})
	dom := BuildDom(fn)
	a0, a1 := fn.Accesses[0], fn.Accesses[1]
	if !dom.StmtDominates(a0, a1) {
		t.Error("first store should dominate second")
	}
	if dom.StmtDominates(a1, a0) {
		t.Error("second store should not dominate first")
	}
}

func TestDomTreeDiamond(t *testing.T) {
	fn := MustBuild(`
shared int X;
shared int Y;
func main() {
    X = 1;           // a0, entry
    if (MYPROC == 0) {
        Y = 1;       // a1, then-branch
    } else {
        Y = 2;       // a2, else-branch
    }
    X = 3;           // a3, join
}
`, BuildOptions{})
	dom := BuildDom(fn)
	a := fn.Accesses
	if !dom.StmtDominates(a[0], a[1]) || !dom.StmtDominates(a[0], a[2]) || !dom.StmtDominates(a[0], a[3]) {
		t.Error("entry store should dominate everything")
	}
	if dom.StmtDominates(a[1], a[3]) {
		t.Error("then-branch store must not dominate the join")
	}
	if dom.StmtDominates(a[1], a[2]) || dom.StmtDominates(a[2], a[1]) {
		t.Error("branch arms must not dominate each other")
	}
}

func TestDomTreeLoop(t *testing.T) {
	fn := MustBuild(`
shared int X;
func main() {
    for (local int i = 0; i < 4; i = i + 1) {
        X = i;       // a0 in loop body
    }
    X = 9;           // a1 after loop
}
`, BuildOptions{})
	dom := BuildDom(fn)
	a := fn.Accesses
	if dom.StmtDominates(a[0], a[1]) {
		t.Error("loop body must not dominate code after the loop (loop may run zero times)")
	}
}

func TestAccessGraphStraightLine(t *testing.T) {
	fn := MustBuild(`
shared int X;
shared int Y;
func main() {
    X = 1;
    Y = 2;
    X = 3;
}
`, BuildOptions{})
	ag := BuildAccessGraph(fn)
	if !ag.Reaches(0, 1) || !ag.Reaches(1, 2) || !ag.Reaches(0, 2) {
		t.Error("forward order missing")
	}
	if ag.Reaches(2, 0) || ag.Reaches(1, 0) {
		t.Error("phantom backward order")
	}
	if ag.Reaches(0, 0) {
		t.Error("straight-line access should not reach itself")
	}
}

func TestAccessGraphBranches(t *testing.T) {
	fn := MustBuild(`
shared int X;
shared int Y;
func main() {
    if (MYPROC == 0) {
        X = 1;   // a0
    } else {
        Y = 1;   // a1
    }
    X = 2;       // a2
}
`, BuildOptions{})
	ag := BuildAccessGraph(fn)
	if !ag.Reaches(0, 2) || !ag.Reaches(1, 2) {
		t.Error("both arms should reach the join access")
	}
	if ag.Reaches(0, 1) || ag.Reaches(1, 0) {
		t.Error("branch arms must not order each other")
	}
}

func TestAccessGraphLoop(t *testing.T) {
	fn := MustBuild(`
shared int X;
func main() {
    for (local int i = 0; i < 4; i = i + 1) {
        X = i;   // a0
    }
}
`, BuildOptions{})
	ag := BuildAccessGraph(fn)
	if !ag.Reaches(0, 0) {
		t.Error("loop access should reach itself across iterations")
	}
}

func TestAccessGraphSkipsEmptyBlocks(t *testing.T) {
	fn := MustBuild(`
shared int X;
shared int Y;
func main() {
    X = 1;            // a0
    if (MYPROC == 0) {
        local int t = 1;  // no accesses here
    }
    Y = 2;            // a1
}
`, BuildOptions{})
	ag := BuildAccessGraph(fn)
	found := false
	for _, v := range ag.Succ[0] {
		found = found || v == 1
	}
	if !found {
		t.Errorf("edge a0->a1 should skip the empty branch\nadj: %v", ag.Succ)
	}
}

func TestAccessGraphNestedLoops(t *testing.T) {
	// Regression: a truncated traversal of the inner loop's header used to
	// poison the memo cache, dropping the edge from the last access of a
	// doubly-nested loop to the access after the loops.
	fn := MustBuild(`
shared int A[64];
shared int X;
func main() {
    for (local int i = 0; i < 4; i = i + 1) {
        for (local int j = 0; j < 4; j = j + 1) {
            A[i * 4 + j] = i + j;   // a0
        }
    }
    X = 1;                          // a1
}
`, BuildOptions{})
	ag := BuildAccessGraph(fn)
	if !ag.Reaches(0, 1) {
		t.Errorf("nested-loop access must reach the access after the loops\nadj: %v", ag.Succ)
	}
	if !ag.Reaches(0, 0) {
		t.Error("nested-loop access should reach itself")
	}
	if ag.Reaches(1, 0) {
		t.Error("phantom backward edge")
	}
}

func TestAccessGraphLoopThenBarrier(t *testing.T) {
	// The Epithel shape that exposed the bug: accesses inside a double
	// loop, then a barrier, then more accesses.
	fn := MustBuild(`
shared float B[64];
func main() {
    barrier;                        // a0
    for (local int i = 0; i < 2; i = i + 1) {
        for (local int j = 0; j < 2; j = j + 1) {
            B[j * 8 + MYPROC] = 1.0;  // a1
        }
    }
    barrier;                        // a2
    local float v = B[MYPROC];      // a3
}
`, BuildOptions{Procs: 8})
	ag := BuildAccessGraph(fn)
	if !ag.Reaches(1, 2) {
		t.Errorf("write in loop must reach the barrier after it\nadj: %v", ag.Succ)
	}
	if !ag.Reaches(0, 3) {
		t.Error("first barrier should reach the final read")
	}
}

// TestLocalArraySizeFolded checks that a local array sized by a constant
// expression gets the folded extent, not only a literal's.
func TestLocalArraySizeFolded(t *testing.T) {
	fn := MustBuild(`
shared int X;
func main() {
    local int a[2*3-1];
    local int b[-(-4)];
    local int c[7/2+10%4];
    a[4] = X;
    b[3] = a[4];
    c[4] = b[3];
}
`, BuildOptions{})
	want := map[string]int64{"a": 5, "b": 4, "c": 5}
	for _, l := range fn.Locals {
		name, _, _ := strings.Cut(l.Name, ".") // a source local is named name.N
		w, ok := want[name]
		if !ok {
			continue
		}
		if !l.IsArr || l.Size != w {
			t.Errorf("local %s: size %d (array %v), want array of %d", l.Name, l.Size, l.IsArr, w)
		}
		delete(want, name)
	}
	if len(want) != 0 {
		t.Errorf("locals %v not found", want)
	}
}

func TestOrderedPairs(t *testing.T) {
	fn := MustBuild(`
shared int X;
shared int Y;
func main() {
    X = 1;
    Y = 2;
}
`, BuildOptions{})
	ag := BuildAccessGraph(fn)
	pairs := ag.OrderedPairs()
	if len(pairs) != 1 || pairs[0] != [2]int{0, 1} {
		t.Errorf("pairs = %v, want [[0 1]]", pairs)
	}
}

func TestFoldConstants(t *testing.T) {
	e := Fold(&Bin{Op: source.OpAdd, T: source.TypeInt,
		L: &Const{Val: IntVal(2)},
		R: &Bin{Op: source.OpMul, T: source.TypeInt, L: &Const{Val: IntVal(3)}, R: &Const{Val: IntVal(4)}}})
	c, ok := e.(*Const)
	if !ok || c.Val.I != 14 {
		t.Errorf("fold(2+3*4) = %v, want 14", e)
	}
}

func TestFoldIdentities(t *testing.T) {
	x := &LocalRef{ID: 0, T: source.TypeInt}
	cases := []struct {
		e    Expr
		want Expr
	}{
		{&Bin{Op: source.OpAdd, T: source.TypeInt, L: &Const{Val: IntVal(0)}, R: x}, x},
		{&Bin{Op: source.OpAdd, T: source.TypeInt, L: x, R: &Const{Val: IntVal(0)}}, x},
		{&Bin{Op: source.OpMul, T: source.TypeInt, L: &Const{Val: IntVal(1)}, R: x}, x},
		{&Bin{Op: source.OpMul, T: source.TypeInt, L: x, R: &Const{Val: IntVal(1)}}, x},
	}
	for i, tc := range cases {
		if got := Fold(tc.e); got != tc.want {
			t.Errorf("case %d: got %v, want identity elimination", i, got)
		}
	}
	zero := Fold(&Bin{Op: source.OpMul, T: source.TypeInt, L: x, R: &Const{Val: IntVal(0)}})
	if c, ok := zero.(*Const); !ok || c.Val.I != 0 {
		t.Errorf("x*0 should fold to 0, got %v", zero)
	}
}

func TestFoldDivByZeroLeft(t *testing.T) {
	e := Fold(&Bin{Op: source.OpDiv, T: source.TypeInt,
		L: &Const{Val: IntVal(1)}, R: &Const{Val: IntVal(0)}})
	if _, ok := e.(*Const); ok {
		t.Error("division by zero must not fold")
	}
}

func TestFoldBuiltins(t *testing.T) {
	e := Fold(&BuiltinCall{Name: "imax", T: source.TypeInt,
		Args: []Expr{&Const{Val: IntVal(3)}, &Const{Val: IntVal(7)}}})
	if c, ok := e.(*Const); !ok || c.Val.I != 7 {
		t.Errorf("imax(3,7) = %v, want 7", e)
	}
	e = Fold(&BuiltinCall{Name: "fsqrt", T: source.TypeFloat,
		Args: []Expr{&Const{Val: FloatVal(9)}}})
	if c, ok := e.(*Const); !ok || c.Val.F != 3 {
		t.Errorf("fsqrt(9) = %v, want 3", e)
	}
}

func TestExprEqual(t *testing.T) {
	a := &Bin{Op: source.OpAdd, T: source.TypeInt, L: &MyProc{}, R: &Const{Val: IntVal(1)}}
	b := &Bin{Op: source.OpAdd, T: source.TypeInt, L: &MyProc{}, R: &Const{Val: IntVal(1)}}
	c := &Bin{Op: source.OpAdd, T: source.TypeInt, L: &MyProc{}, R: &Const{Val: IntVal(2)}}
	if !ExprEqual(a, b) {
		t.Error("structurally equal exprs reported unequal")
	}
	if ExprEqual(a, c) {
		t.Error("different constants reported equal")
	}
	if !ExprEqual(nil, nil) || ExprEqual(a, nil) {
		t.Error("nil handling wrong")
	}
}

func TestExprLocals(t *testing.T) {
	e := &Bin{Op: source.OpAdd, T: source.TypeInt,
		L: &LocalRef{ID: 3, T: source.TypeInt},
		R: &ElemRef{Arr: 5, Index: &LocalRef{ID: 7, T: source.TypeInt}, T: source.TypeInt}}
	ids := ExprLocals(e, nil)
	if len(ids) != 3 {
		t.Fatalf("got %v, want 3 locals", ids)
	}
	if !ExprUsesLocal(e, 7) || ExprUsesLocal(e, 4) {
		t.Error("ExprUsesLocal wrong")
	}
}

func TestAffineOf(t *testing.T) {
	// MYPROC*8 + i - 2
	i := &LocalRef{ID: 1, T: source.TypeInt}
	e := &Bin{Op: source.OpSub, T: source.TypeInt,
		L: &Bin{Op: source.OpAdd, T: source.TypeInt,
			L: &Bin{Op: source.OpMul, T: source.TypeInt, L: &MyProc{}, R: &Const{Val: IntVal(8)}},
			R: i},
		R: &Const{Val: IntVal(2)}}
	a := AffineOf(e)
	if !a.OK || a.M != 8 || a.C != -2 || len(a.Terms) != 1 || a.Terms[0].Coeff != 1 {
		t.Errorf("affine = %+v", a)
	}
}

func TestAffineNonAffine(t *testing.T) {
	i := &LocalRef{ID: 1, T: source.TypeInt}
	e := &Bin{Op: source.OpMul, T: source.TypeInt, L: i, R: i}
	if AffineOf(e).OK {
		t.Error("i*i should not be affine")
	}
	d := &Bin{Op: source.OpDiv, T: source.TypeInt, L: i, R: &Const{Val: IntVal(2)}}
	if AffineOf(d).OK {
		t.Error("i/2 should not be affine")
	}
}

func TestAffineTermCancellation(t *testing.T) {
	i := &LocalRef{ID: 1, T: source.TypeInt}
	e := &Bin{Op: source.OpSub, T: source.TypeInt, L: i, R: i}
	a := AffineOf(e)
	if !a.OK || len(a.Terms) != 0 || a.C != 0 {
		t.Errorf("i-i affine = %+v, want constant 0", a)
	}
}

func TestDistinctAcrossProcsCyclic(t *testing.T) {
	fn := MustBuild(`
shared int A[64] cyclic;
func main() {
    for (local int i = 0; i < 8; i = i + 1) {
        A[MYPROC + i * PROCS] = i;
    }
}
`, BuildOptions{Procs: 8})
	acc := fn.Accesses[0]
	if !DistinctAcrossProcs(fn, acc.Index, acc.Index) {
		t.Errorf("cyclic owner-computes write not disambiguated\n%s", fn)
	}
}

func TestDistinctAcrossProcsNegative(t *testing.T) {
	fn := MustBuild(`
shared int A[64];
shared int X;
func main() {
    local int j = MYPROC;
    A[j] = 1;        // j not a counted-loop var: no range info
    A[0] = 2;        // constant index: all procs collide
    X = 3;
}
`, BuildOptions{Procs: 8})
	a0 := fn.Accesses[0]
	a1 := fn.Accesses[1]
	x := fn.Accesses[2]
	// A[j]: affine M=0 terms {j}; no range => not distinct.
	if DistinctAcrossProcs(fn, a0.Index, a0.Index) {
		t.Error("A[j] with unknown j must stay conservative")
	}
	if DistinctAcrossProcs(fn, a1.Index, a1.Index) {
		t.Error("A[0] collides across processors")
	}
	if DistinctAcrossProcs(fn, x.Index, x.Index) {
		t.Error("scalar accesses collide across processors")
	}
}

func TestDistinctMyProcDirect(t *testing.T) {
	// A[MYPROC]: M=1, residual [0,0] ⊆ [0,1): distinct.
	fn := MustBuild(`
shared int A[64];
func main() {
    A[MYPROC] = 1;
}
`, BuildOptions{})
	acc := fn.Accesses[0]
	if !DistinctAcrossProcs(fn, acc.Index, acc.Index) {
		t.Error("A[MYPROC] should be distinct across processors")
	}
}

func TestPrintIR(t *testing.T) {
	fn := MustBuild(`
shared int X;
event e;
func main() {
    local int v = X;
    X = v + 1;
    post(e);
    barrier;
    print("v", v);
}
`, BuildOptions{})
	out := fn.String()
	for _, want := range []string{"load X", "store X", "post e", "barrier", "print"} {
		if !strings.Contains(out, want) {
			t.Errorf("IR dump missing %q:\n%s", want, out)
		}
	}
}

// TestPrintIRExact pins the printed form byte for byte on a program with
// every statement, terminator and expression form: the text is the input of
// the conflict keys, not only a debugging aid.
func TestPrintIRExact(t *testing.T) {
	fn := MustBuild(`
shared float X[8];
shared int N;
event e;
lock l;
func main() {
    local int v = N;
    local float w[4];
    w[v % 4] = 1.5e10 * -X[(MYPROC + 1) % PROCS];
    if (!(v < 3) && v != 7) {
        X[MYPROC] = fabs(w[0]) + itof(imin(v, 2)) + 0.25;
    }
    lock(l); N = v + 1; unlock(l);
    post(e); wait(e);
    barrier;
    print("v\t", v, "w", w[1]);
}
`, BuildOptions{Procs: 4})
	const want = `func main (procs=4, 9 accesses)
b0:
    v.0 = load N    ; a0
    t1 = load X[((MYPROC + 1) % 4)]    ; a1
    w.1[(v.0 % 4)] = (1.5e+10 * -(t1))
    branch (!((v.0 < 3)) && (v.0 != 7)) ? b1 : b2
b1:
    store X[MYPROC] = ((fabs(w.1[0]) + itof(imin(v.0, 2))) + 0.25)    ; a2
    jump b2
b2:
    lock l    ; a3
    store N = (v.0 + 1)    ; a4
    unlock l    ; a5
    post e    ; a6
    wait e    ; a7
    barrier    ; a8
    print "v\t", v.0, "w", w.1[1]
    ret
`
	if got := fn.String(); got != want {
		t.Errorf("printed IR:\n%s\nwant:\n%s", got, want)
	}
	st := fn.Blocks[0].Stmts[2]
	if got, want := fn.StmtString(st), "w.1[(v.0 % 4)] = (1.5e+10 * -(t1))"; got != want {
		t.Errorf("StmtString = %q, want %q", got, want)
	}
	if got, want := fn.ExprString(fn.Accesses[1].Index), "((MYPROC + 1) % 4)"; got != want {
		t.Errorf("ExprString = %q, want %q", got, want)
	}
}

func TestValueHelpers(t *testing.T) {
	if !IntVal(3).IsTrue() || IntVal(0).IsTrue() {
		t.Error("int truth wrong")
	}
	if !FloatVal(0.5).IsTrue() || FloatVal(0).IsTrue() {
		t.Error("float truth wrong")
	}
	if BoolVal(true).I != 1 || BoolVal(false).I != 0 {
		t.Error("BoolVal wrong")
	}
	if IntVal(2).Float() != 2.0 || FloatVal(2.5).Float() != 2.5 {
		t.Error("Float() wrong")
	}
	if IntVal(7).String() != "7" || FloatVal(1.5).String() != "1.5" {
		t.Error("String() wrong")
	}
}

func TestAccessKindPredicates(t *testing.T) {
	if !AccRead.IsData() || !AccWrite.IsData() || AccPost.IsData() {
		t.Error("IsData wrong")
	}
	if AccRead.IsSync() || !AccBarrier.IsSync() || !AccLock.IsSync() {
		t.Error("IsSync wrong")
	}
}

func TestEvalBinComparisonsAndLogic(t *testing.T) {
	v, ok := EvalBin(source.OpLt, IntVal(1), IntVal(2))
	if !ok || v.I != 1 {
		t.Error("1<2 wrong")
	}
	v, ok = EvalBin(source.OpAnd, IntVal(1), IntVal(0))
	if !ok || v.I != 0 {
		t.Error("1&&0 wrong")
	}
	v, ok = EvalBin(source.OpEq, FloatVal(2), IntVal(2))
	if !ok || v.I != 1 {
		t.Error("2.0==2 wrong")
	}
	_, ok = EvalBin(source.OpMod, IntVal(1), IntVal(0))
	if ok {
		t.Error("mod by zero should fail")
	}
}

// Reaches reports whether access b can execute after access a on the same
// processor in some execution (a path of length >= 1 in program order).
func (ag *AccessGraph) Reaches(a, b int) bool { return graph.BitGet(ag.PredRow(b), a) }

// StmtString renders one statement.
func (f *Fn) StmtString(s Stmt) string { return string(f.AppendStmt(nil, s)) }
