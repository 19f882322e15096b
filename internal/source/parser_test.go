package source

import (
	"strings"
	"testing"
)

const figure1Src = `
// Figure 1 of the paper: flag/data producer-consumer without sync primitives.
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
`

func TestParseFigure1(t *testing.T) {
	prog, err := Parse(figure1Src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Decls) != 3 {
		t.Fatalf("got %d decls, want 3", len(prog.Decls))
	}
	d0, ok := prog.Decls[0].(*SharedDecl)
	if !ok || d0.Name != "Data" || d0.Type != TypeInt || d0.Size != nil {
		t.Errorf("decl 0 = %+v, want shared int Data", prog.Decls[0])
	}
	if lit, ok := d0.Init.(*IntLit); !ok || lit.Value != 0 {
		t.Errorf("Data init = %v, want 0", d0.Init)
	}
	f := prog.Func("main")
	if f == nil {
		t.Fatal("main not found")
	}
	if len(f.Body.Stmts) != 2 {
		t.Fatalf("main has %d stmts, want 2", len(f.Body.Stmts))
	}
	ifs, ok := f.Body.Stmts[1].(*IfStmt)
	if !ok {
		t.Fatalf("stmt 1 is %T, want *IfStmt", f.Body.Stmts[1])
	}
	if ifs.Else == nil {
		t.Fatal("if has no else")
	}
	if _, ok := ifs.Else.Stmts[0].(*WhileStmt); !ok {
		t.Errorf("else stmt 0 is %T, want *WhileStmt", ifs.Else.Stmts[0])
	}
}

func TestParseDistributedArray(t *testing.T) {
	prog, err := Parse(`
shared float grid[1024] blocked;
shared int counts[64] cyclic;
shared int plain[10];
func main() { }
`)
	if err != nil {
		t.Fatal(err)
	}
	g := prog.Decls[0].(*SharedDecl)
	if g.Layout != LayoutBlocked || g.Type != TypeFloat {
		t.Errorf("grid: layout %v type %v", g.Layout, g.Type)
	}
	c := prog.Decls[1].(*SharedDecl)
	if c.Layout != LayoutCyclic {
		t.Errorf("counts layout %v, want cyclic", c.Layout)
	}
	pl := prog.Decls[2].(*SharedDecl)
	if pl.Layout != LayoutBlocked {
		t.Errorf("default layout %v, want blocked", pl.Layout)
	}
}

func TestParseScalarOwner(t *testing.T) {
	prog, err := Parse(`
shared int X on 3 = 7;
func main() { }
`)
	if err != nil {
		t.Fatal(err)
	}
	d := prog.Decls[0].(*SharedDecl)
	if o, ok := d.Owner.(*IntLit); !ok || o.Value != 3 {
		t.Errorf("owner = %v, want 3", d.Owner)
	}
	if v, ok := d.Init.(*IntLit); !ok || v.Value != 7 {
		t.Errorf("init = %v, want 7", d.Init)
	}
}

func TestParseEventsAndLocks(t *testing.T) {
	prog, err := Parse(`
event done;
event flags[16];
lock m;
lock rows[8];
func main() {
    post(done);
    wait(done);
    post(flags[MYPROC]);
    wait(flags[3]);
    lock(m);
    unlock(m);
    lock(rows[MYPROC % 8]);
    unlock(rows[MYPROC % 8]);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Decls) != 5 {
		t.Fatalf("got %d decls, want 5", len(prog.Decls))
	}
	ev := prog.Decls[1].(*EventDecl)
	if ev.Size == nil {
		t.Error("flags should have a size")
	}
	lk := prog.Decls[3].(*LockDecl)
	if lk.Size == nil {
		t.Error("rows should have a size")
	}
	body := prog.Func("main").Body.Stmts
	if _, ok := body[0].(*PostStmt); !ok {
		t.Errorf("stmt 0 is %T, want *PostStmt", body[0])
	}
	if _, ok := body[1].(*WaitStmt); !ok {
		t.Errorf("stmt 1 is %T, want *WaitStmt", body[1])
	}
	p2 := body[2].(*PostStmt)
	if p2.Event.Index == nil {
		t.Error("post(flags[MYPROC]) lost its index")
	}
	if _, ok := body[4].(*LockStmt); !ok {
		t.Errorf("stmt 4 is %T, want *LockStmt", body[4])
	}
	if _, ok := body[7].(*UnlockStmt); !ok {
		t.Errorf("stmt 7 is %T, want *UnlockStmt", body[7])
	}
}

func TestParseBarrierForms(t *testing.T) {
	prog, err := Parse(`func main() { barrier; barrier(); }`)
	if err != nil {
		t.Fatal(err)
	}
	body := prog.Func("main").Body.Stmts
	if len(body) != 2 {
		t.Fatalf("got %d stmts, want 2", len(body))
	}
	for i, s := range body {
		if _, ok := s.(*BarrierStmt); !ok {
			t.Errorf("stmt %d is %T, want *BarrierStmt", i, s)
		}
	}
}

func TestParseForLoop(t *testing.T) {
	prog, err := Parse(`
func main() {
    local int s = 0;
    for (local int i = 0; i < 10; i = i + 1) {
        s = s + i;
    }
    for (s = 0; ; ) { s = s + 1; }
    for (; s < 3; s = s + 1) { }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	body := prog.Func("main").Body.Stmts
	f0 := body[1].(*ForStmt)
	if _, ok := f0.Init.(*LocalDecl); !ok {
		t.Errorf("for init is %T, want *LocalDecl", f0.Init)
	}
	if f0.Cond == nil || f0.Post == nil {
		t.Error("for loop lost cond or post")
	}
	f1 := body[2].(*ForStmt)
	if f1.Cond != nil || f1.Post != nil {
		t.Error("second for should have nil cond and post")
	}
	f2 := body[3].(*ForStmt)
	if f2.Init != nil || f2.Cond == nil {
		t.Error("third for should have nil init and non-nil cond")
	}
}

func TestParseFunctionsAndCalls(t *testing.T) {
	prog, err := Parse(`
func add(int a, int b) int {
    return a + b;
}
func work() {
    return;
}
func main() {
    local int x = add(1, add(2, 3));
    work();
    print("x", x);
}
`)
	if err != nil {
		t.Fatal(err)
	}
	add := prog.Func("add")
	if add.Result != TypeInt || len(add.Params) != 2 {
		t.Errorf("add signature wrong: %+v", add)
	}
	w := prog.Func("work")
	if w.Result != TypeVoid {
		t.Errorf("work result = %v, want void", w.Result)
	}
	body := prog.Func("main").Body.Stmts
	ld := body[0].(*LocalDecl)
	call, ok := ld.Init.(*CallExpr)
	if !ok || call.Name != "add" || len(call.Args) != 2 {
		t.Fatalf("init = %v, want add(1, add(2,3))", ld.Init)
	}
	if inner, ok := call.Args[1].(*CallExpr); !ok || inner.Name != "add" {
		t.Error("nested call not parsed")
	}
	if _, ok := body[1].(*CallStmt); !ok {
		t.Errorf("stmt 1 is %T, want *CallStmt", body[1])
	}
	pr := body[2].(*PrintStmt)
	if len(pr.Args) != 2 {
		t.Errorf("print has %d args, want 2", len(pr.Args))
	}
	if _, ok := pr.Args[0].(*StringLit); !ok {
		t.Errorf("print arg 0 is %T, want *StringLit", pr.Args[0])
	}
}

func TestParsePrecedence(t *testing.T) {
	prog, err := Parse(`func main() { local int x = 1 + 2 * 3; }`)
	if err != nil {
		t.Fatal(err)
	}
	ld := prog.Func("main").Body.Stmts[0].(*LocalDecl)
	top := ld.Init.(*BinExpr)
	if top.Op != OpAdd {
		t.Fatalf("top op = %v, want +", top.Op)
	}
	r := top.R.(*BinExpr)
	if r.Op != OpMul {
		t.Errorf("right op = %v, want *", r.Op)
	}
	// Operators of one level associate to the left; a unary operator binds
	// tighter than any binary one.
	for src, want := range map[string]string{
		"a - b - c": "((a - b) - c)",
		"a / b % c": "((a / b) % c)",
		"!a && b":   "(!(a) && b)",
		"-a * b":    "(-(a) * b)",
	} {
		prog, err := Parse("func main() { x = " + src + "; }")
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got := PrintExpr(prog.Func("main").Body.Stmts[0].(*AssignStmt).RHS); got != want {
			t.Errorf("%s parses as %s, want %s", src, got, want)
		}
	}
}

func TestParsePrecedenceFull(t *testing.T) {
	// a || b && c == d + e * -f   parses as  a || (b && (c == (d + (e * (-f)))))
	prog, err := Parse(`func main() { local int x = a || b && c == d + e * -f; }`)
	if err != nil {
		t.Fatal(err)
	}
	e := prog.Func("main").Body.Stmts[0].(*LocalDecl).Init
	or := e.(*BinExpr)
	if or.Op != OpOr {
		t.Fatalf("top = %v, want ||", or.Op)
	}
	and := or.R.(*BinExpr)
	if and.Op != OpAnd {
		t.Fatalf("next = %v, want &&", and.Op)
	}
	eq := and.R.(*BinExpr)
	if eq.Op != OpEq {
		t.Fatalf("next = %v, want ==", eq.Op)
	}
	add := eq.R.(*BinExpr)
	if add.Op != OpAdd {
		t.Fatalf("next = %v, want +", add.Op)
	}
	mul := add.R.(*BinExpr)
	if mul.Op != OpMul {
		t.Fatalf("next = %v, want *", mul.Op)
	}
	if _, ok := mul.R.(*UnExpr); !ok {
		t.Fatalf("innermost = %T, want unary", mul.R)
	}
}

func TestParseParens(t *testing.T) {
	prog, err := Parse(`func main() { local int x = (1 + 2) * 3; }`)
	if err != nil {
		t.Fatal(err)
	}
	top := prog.Func("main").Body.Stmts[0].(*LocalDecl).Init.(*BinExpr)
	if top.Op != OpMul {
		t.Fatalf("top op = %v, want *", top.Op)
	}
	if l, ok := top.L.(*BinExpr); !ok || l.Op != OpAdd {
		t.Error("parenthesized add not grouped left")
	}
}

func TestParseElseIf(t *testing.T) {
	prog, err := Parse(`
func main() {
    local int x = 0;
    if (x == 0) { x = 1; } else if (x == 1) { x = 2; } else { x = 3; }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	ifs := prog.Func("main").Body.Stmts[1].(*IfStmt)
	inner, ok := ifs.Else.Stmts[0].(*IfStmt)
	if !ok {
		t.Fatalf("else-if not nested: %T", ifs.Else.Stmts[0])
	}
	if inner.Else == nil {
		t.Error("inner else missing")
	}
}

func TestParseArrayAccess(t *testing.T) {
	prog, err := Parse(`
shared int A[100];
func main() {
    local int i = 0;
    A[i * 2 + 1] = A[i] + A[i + 1];
}
`)
	if err != nil {
		t.Fatal(err)
	}
	as := prog.Func("main").Body.Stmts[1].(*AssignStmt)
	if as.LHS.Index == nil {
		t.Fatal("LHS index lost")
	}
	rhs := as.RHS.(*BinExpr)
	if l, ok := rhs.L.(*VarRef); !ok || l.Index == nil {
		t.Error("RHS A[i] not parsed as indexed ref")
	}
}

func TestParseMyProcProcs(t *testing.T) {
	prog, err := Parse(`func main() { local int x = MYPROC * PROCS; }`)
	if err != nil {
		t.Fatal(err)
	}
	e := prog.Func("main").Body.Stmts[0].(*LocalDecl).Init.(*BinExpr)
	if _, ok := e.L.(*MyProcExpr); !ok {
		t.Errorf("left is %T, want MyProcExpr", e.L)
	}
	if _, ok := e.R.(*ProcsExpr); !ok {
		t.Errorf("right is %T, want ProcsExpr", e.R)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"shared;",
		"shared int;",
		"shared int x",      // missing semicolon
		"func main() { x }", // missing =
		"func main() { x = }",
		"func main() { if x { } }",    // missing parens
		"func main() { while () {} }", // empty cond
		"func main() {",
		"func main( {}",
		"func f(int) {}", // missing param name
		"event;",
		"lock;",
		"x = 1;", // statement at top level
		"func main() { post done; }",
		"func main() { local bad x; }",
		"func main() { return 1 }",
		"func main() { for (i=0 i<2; ) {} }",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error, got none", src)
		}
	}
	// Comparisons do not chain, and a lone & or | is no operator.
	for src, want := range map[string]string{
		"func main() { x = a < b < c; }": `1:25: expected ;, found <`,
		"func main() { x = a & b; }":     `1:21: unexpected character "&" (did you mean "&&"?)`,
		"func main() { x = a | b; }":     `1:21: unexpected character "|" (did you mean "||"?)`,
	} {
		if _, err := Parse(src); err == nil || err.Error() != want {
			t.Errorf("Parse(%q): error %v, want %s", src, err, want)
		}
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := Parse("func main() {\n  x = ;\n}")
	if err == nil {
		t.Fatal("expected error")
	}
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T, want *ParseError", err)
	}
	if pe.Pos.Line != 2 {
		t.Errorf("error at line %d, want 2", pe.Pos.Line)
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Errorf("error message %q should contain line", err.Error())
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse("not a program")
}

// Round-trip: Print(Parse(src)) parses to a program that prints identically.
func TestPrintRoundTrip(t *testing.T) {
	srcs := []string{
		figure1Src,
		`
shared float A[256] cyclic;
shared int total on 2 = 5;
event e[4];
lock l;
func helper(int n) int {
    local int r = 0;
    for (local int i = 0; i < n; i = i + 1) {
        r = r + i % 3;
    }
    return r;
}
func main() {
    local float f = 2.5;
    local int x[10];
    x[0] = helper(4);
    A[MYPROC] = f * 2.0;
    barrier;
    if (MYPROC == 0) {
        post(e[1]);
    } else {
        wait(e[1]);
    }
    lock(l);
    total = total + 1;
    unlock(l);
    print("done", total, 1.5);
}
`,
	}
	for i, src := range srcs {
		p1, err := Parse(src)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		out1 := Print(p1)
		p2, err := Parse(out1)
		if err != nil {
			t.Fatalf("case %d: reparse failed: %v\nprinted:\n%s", i, err, out1)
		}
		out2 := Print(p2)
		if out1 != out2 {
			t.Errorf("case %d: print not stable:\n--- first ---\n%s\n--- second ---\n%s", i, out1, out2)
		}
	}
}

func TestProgramFuncsHelpers(t *testing.T) {
	prog := MustParse(`
func a() { }
func b() { }
func main() { }
`)
	fs := prog.Funcs()
	if len(fs) != 3 {
		t.Fatalf("Funcs returned %d, want 3", len(fs))
	}
	if prog.Func("nope") != nil {
		t.Error("Func(nope) should be nil")
	}
	if prog.Func("b").Name != "b" {
		t.Error("Func(b) returned wrong function")
	}
}
