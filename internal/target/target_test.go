package target

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/source"
)

// buildFn compiles a small program to get real accesses and locals to
// hang target statements on.
func buildFn(t *testing.T) *ir.Fn {
	t.Helper()
	return ir.MustBuild(`
shared int X;
shared int A[16];
func main() {
    local int v = X;
    A[MYPROC] = v + 1;
}
`, ir.BuildOptions{Procs: 4})
}

// accessOf finds the first access of the given kind.
func accessOf(t *testing.T, fn *ir.Fn, kind ir.AccessKind) *ir.Access {
	t.Helper()
	for _, a := range fn.Accesses {
		if a.Kind == kind {
			return a
		}
	}
	t.Fatalf("no %s access in test program", kind)
	return nil
}

func TestNewBlockAssignsIDs(t *testing.T) {
	p := &Prog{}
	for i := 0; i < 3; i++ {
		b := p.NewBlock(i)
		if b.ID != i {
			t.Errorf("block %d has ID %d", i, b.ID)
		}
	}
	if len(p.Blocks) != 3 {
		t.Fatalf("Blocks = %d, want 3", len(p.Blocks))
	}
}

func TestSuccs(t *testing.T) {
	p := &Prog{}
	b0, b1, b2 := p.NewBlock(0), p.NewBlock(1), p.NewBlock(2)
	b0.Term = &Branch{Cond: &ir.Const{Val: ir.IntVal(1)}, Then: b1, Else: b2}
	b1.Term = &Jump{To: b2}
	b2.Term = &Ret{}

	succs := func(b *Block) []*Block {
		var s []*Block
		b.ForSuccs(func(x *Block) { s = append(s, x) })
		return s
	}
	if s := succs(b0); len(s) != 2 || s[0] != b1 || s[1] != b2 {
		t.Errorf("branch succs = %v", s)
	}
	if s := succs(b1); len(s) != 1 || s[0] != b2 {
		t.Errorf("jump succs = %v", s)
	}
	if s := succs(b2); s != nil {
		t.Errorf("ret succs = %v", s)
	}
	// A degenerate branch with equal arms has one successor.
	b0.Term = &Branch{Cond: &ir.Const{Val: ir.IntVal(1)}, Then: b1, Else: b1}
	if s := succs(b0); len(s) != 1 || s[0] != b1 {
		t.Errorf("degenerate branch succs = %v", s)
	}
}

func TestCtrString(t *testing.T) {
	if got := Ctr(7).String(); got != "c7" {
		t.Errorf("Ctr(7) = %q, want %q", got, "c7")
	}
}

func TestStmtStrings(t *testing.T) {
	fn := buildFn(t)
	read := accessOf(t, fn, ir.AccRead)   // X
	write := accessOf(t, fn, ir.AccWrite) // A[MYPROC]
	p := &Prog{Fn: fn, Counters: 2}

	get := &Get{Dst: 0, Acc: read, Ctr: 0}
	gs := p.StmtString(get)
	if !strings.HasPrefix(gs, "get_ctr ") || !strings.Contains(gs, ", c0") {
		t.Errorf("get renders %q", gs)
	}
	if !strings.Contains(gs, "X") {
		t.Errorf("get should name the symbol: %q", gs)
	}

	put := &Put{Acc: write, Src: &ir.Const{Val: ir.IntVal(3)}, Ctr: 1}
	ps := p.StmtString(put)
	if !strings.HasPrefix(ps, "put_ctr A[") || !strings.Contains(ps, ", c1") {
		t.Errorf("put renders %q", ps)
	}

	st := &Store{Acc: write, Src: &ir.Const{Val: ir.IntVal(3)}}
	ss := p.StmtString(st)
	if !strings.HasPrefix(ss, "store A[") {
		t.Errorf("store renders %q", ss)
	}

	sy := p.StmtString(&SyncCtr{Ctr: 1})
	if sy != "sync_ctr c1" {
		t.Errorf("sync renders %q", sy)
	}

	// Wrapped IR statements defer to the IR printer.
	ws := p.StmtString(&Wrap{S: &ir.Assign{Dst: 0, Src: &ir.Const{Val: ir.IntVal(0)}}})
	if !strings.Contains(ws, "= 0") {
		t.Errorf("wrap renders %q", ws)
	}
}

func TestProgString(t *testing.T) {
	fn := buildFn(t)
	read := accessOf(t, fn, ir.AccRead)
	p := &Prog{Fn: fn, Counters: 1}
	b0 := p.NewBlock(0)
	b1 := p.NewBlock(1)
	b0.Stmts = append(b0.Stmts,
		&Get{Dst: 0, Acc: read, Ctr: 0},
		&SyncCtr{Ctr: 0},
	)
	b0.Term = &Jump{To: b1}
	b1.Term = &Ret{}

	out := p.String()
	for _, want := range []string{"b0:", "b1:", "get_ctr", "sync_ctr c0", "jump b1", "ret"} {
		if !strings.Contains(out, want) {
			t.Errorf("program text missing %q:\n%s", want, out)
		}
	}
}

func TestCollectStats(t *testing.T) {
	fn := buildFn(t)
	read := accessOf(t, fn, ir.AccRead)
	write := accessOf(t, fn, ir.AccWrite)
	p := &Prog{Fn: fn, Counters: 2}
	b := p.NewBlock(0)
	b.Stmts = []Stmt{
		&Get{Dst: 0, Acc: read, Ctr: 0},
		&SyncCtr{Ctr: 0},
		&Put{Acc: write, Src: &ir.Const{Val: ir.IntVal(1)}, Ctr: 1},
		&Store{Acc: write, Src: &ir.Const{Val: ir.IntVal(2)}},
		&Wrap{S: &ir.Assign{Dst: 0, Src: &ir.Const{Val: ir.IntVal(0)}}},
		&SyncCtr{Ctr: 1},
	}
	b.Term = &Ret{}

	st := p.CollectStats()
	want := Stats{Gets: 1, Puts: 1, Stores: 1, Syncs: 2}
	if st != want {
		t.Errorf("CollectStats = %+v, want %+v", st, want)
	}
}

func TestValidate(t *testing.T) {
	fn := buildFn(t)
	read := accessOf(t, fn, ir.AccRead)
	p := &Prog{Fn: fn, Counters: 1}
	b := p.NewBlock(0)
	b.Stmts = []Stmt{&Get{Dst: 0, Acc: read, Ctr: 0}, &SyncCtr{Ctr: 0}}
	b.Term = &Ret{}
	if err := p.Validate(); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}

	// Missing terminator.
	b.Term = nil
	if err := p.Validate(); err == nil {
		t.Error("missing terminator accepted")
	}
	b.Term = &Ret{}

	// Counter out of range.
	b.Stmts = append(b.Stmts, &SyncCtr{Ctr: 5})
	if err := p.Validate(); err == nil {
		t.Error("out-of-range counter accepted")
	}
}

// oddStmt is a statement kind the printer does not know.
type oddStmt struct{}

func (*oddStmt) stmtNode() {}

// TestPrintTargetExact pins the printed target program byte for byte on
// every statement and terminator form: scalar and indexed references, a
// local past the function's table, an access without a symbol, a sync_ctr
// with provenance (not printed), wrapped IR statements, an unknown
// statement, and all four terminator cases. The text is what compile-2k's
// per-op check digests and what the daemon returns.
func TestPrintTargetExact(t *testing.T) {
	fn := ir.MustBuild(`
shared int X;
shared int A[16];
func main() {
    local int v = X;
    local int w = A[(MYPROC + 1) % PROCS];
    A[MYPROC] = v + w;
    X = 2;
    barrier;
    print("v", v);
}
`, ir.BuildOptions{Procs: 4})
	var reads, writes []*ir.Access
	var wraps []ir.Stmt
	for _, blk := range fn.Blocks {
		for _, s := range blk.Stmts {
			switch s := s.(type) {
			case *ir.Load:
				reads = append(reads, s.Acc)
			case *ir.Store:
				writes = append(writes, s.Acc)
			case *ir.SyncOp, *ir.Print:
				wraps = append(wraps, s)
			}
		}
	}
	if len(reads) != 2 || len(writes) != 2 || len(wraps) != 2 {
		t.Fatalf("program has %d reads, %d writes, %d sync/print statements; the test is written for 2, 2, 2",
			len(reads), len(writes), len(wraps))
	}
	src := &ir.Bin{Op: source.OpAdd, L: &ir.LocalRef{ID: 0}, R: &ir.Const{Val: ir.IntVal(1)}}
	p := &Prog{Fn: fn, Counters: 3}
	b0, b1, b2 := p.NewBlock(0), p.NewBlock(1), p.NewBlock(2)
	p.NewBlock(3) // left without a terminator
	b0.Stmts = []Stmt{
		&Get{Dst: 0, Acc: reads[0], Ctr: 0},
		&Get{Dst: 99, Acc: reads[1], Ctr: 1},
		&SyncCtr{Ctr: 0, Why: []Cause{{Acc: 0, Blocker: 2, Kind: CauseDelay}}},
		&Put{Acc: writes[0], Src: src, Ctr: 2},
		&Store{Acc: writes[1], Src: &ir.Const{Val: ir.IntVal(2)}},
	}
	b0.Term = &Branch{Cond: &ir.LocalRef{ID: 0}, Then: b1, Else: b2}
	b1.Stmts = []Stmt{
		&Store{Acc: &ir.Access{ID: 9}, Src: &ir.MyProc{}},
		&Wrap{S: wraps[0]},
		&Wrap{S: &ir.Assign{Dst: 1, Src: src}},
	}
	b1.Term = &Jump{To: b2}
	b2.Stmts = []Stmt{&Wrap{S: wraps[1]}, &oddStmt{}}
	b2.Term = &Ret{}
	const want = `target main (counters=3)
b0:
    get_ctr v.0 = X, c0    ; a0
    get_ctr l99 = A[((MYPROC + 1) % 4)], c1    ; a1
    sync_ctr c0
    put_ctr A[MYPROC] = (v.0 + 1), c2    ; a2
    store X = 2    ; a3
    branch v.0 ? b1 : b2
b1:
    store  = MYPROC    ; a9
    barrier    ; a4
    w.1 = (v.0 + 1)
    jump b2
b2:
    print "v", v.0
    ?stmt *target.oddStmt
    ret
b3:
    <no terminator>
`
	if got := p.String(); got != want {
		t.Errorf("printed target:\n%s\nwant:\n%s", got, want)
	}
	if got, want := p.StmtString(b0.Stmts[3]), "put_ctr A[MYPROC] = (v.0 + 1), c2    ; a2"; got != want {
		t.Errorf("StmtString = %q, want %q", got, want)
	}
}

// Validate checks structural invariants: every block has a terminator,
// block IDs match their positions, and every counter reference lies in
// [0, Counters). The code generator's output must always validate.
func (p *Prog) Validate() error {
	checkCtr := func(c Ctr, where string) error {
		if int(c) < 0 || int(c) >= p.Counters {
			return fmt.Errorf("target: %s uses counter %s outside [0,%d)", where, c, p.Counters)
		}
		return nil
	}
	for i, b := range p.Blocks {
		if b.ID != i {
			return fmt.Errorf("target: block at position %d has ID %d", i, b.ID)
		}
		if b.Term == nil {
			return fmt.Errorf("target: block b%d has no terminator", b.ID)
		}
		for _, s := range b.Stmts {
			switch s := s.(type) {
			case *Get:
				if err := checkCtr(s.Ctr, "get"); err != nil {
					return err
				}
			case *Put:
				if err := checkCtr(s.Ctr, "put"); err != nil {
					return err
				}
			case *SyncCtr:
				if err := checkCtr(s.Ctr, "sync_ctr"); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
