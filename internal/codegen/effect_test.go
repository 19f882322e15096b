package codegen

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"slices"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/source"
	"repro/internal/target"
)

// effectRow is one target statement with the effect the model must give
// it.
type effectRow struct {
	name  string
	s     target.Stmt
	def   ir.LocalID
	reads []ir.LocalID
	acc   *ir.Access
	write bool
	class string // "", "acquire", "release" or "acquire+release"
}

func effectRows() []effectRow {
	l := func(id ir.LocalID) ir.Expr { return &ir.LocalRef{ID: id, T: source.TypeInt} }
	add := func(a, b ir.Expr) ir.Expr { return &ir.Bin{Op: source.OpAdd, T: source.TypeInt, L: a, R: b} }
	acc := func(id int, k ir.AccessKind, index ir.Expr) *ir.Access {
		return &ir.Access{ID: id, Kind: k, Index: index}
	}
	read := acc(0, ir.AccRead, add(l(1), l(2)))
	put := acc(1, ir.AccWrite, l(1))
	store := acc(2, ir.AccWrite, nil)
	post := acc(3, ir.AccPost, l(12))
	wait := acc(4, ir.AccWait, l(13))
	lock := acc(5, ir.AccLock, nil)
	unlock := acc(6, ir.AccUnlock, nil)
	barrier := acc(7, ir.AccBarrier, nil)
	return []effectRow{
		{"get", &target.Get{Dst: 0, Acc: read}, 0, []ir.LocalID{1, 2}, read, false, ""},
		{"put", &target.Put{Acc: put, Src: add(l(2), l(3))}, noLocal, []ir.LocalID{1, 2, 3}, put, true, ""},
		{"store", &target.Store{Acc: store, Src: &ir.Const{Val: ir.IntVal(1)}}, noLocal, nil, store, true, ""},
		{"sync_ctr", &target.SyncCtr{Ctr: 0}, noLocal, nil, nil, false, ""},
		{"assign", &target.Wrap{S: &ir.Assign{Dst: 4, Src: add(l(5), l(5))}}, 4, []ir.LocalID{5, 5}, nil, false, ""},
		{"setelem", &target.Wrap{S: &ir.SetElem{Arr: 7, Index: l(8), Src: l(9)}}, 7, []ir.LocalID{7, 8, 9}, nil, false, ""},
		{"print", &target.Wrap{S: &ir.Print{Args: []ir.PrintArg{
			{Str: "x", IsStr: true},
			{E: l(10)},
			{E: &ir.ElemRef{Arr: 7, Index: l(11), T: source.TypeInt}},
		}}}, noLocal, []ir.LocalID{10, 7, 11}, nil, false, ""},
		{"post", &target.Wrap{S: &ir.SyncOp{Acc: post}}, noLocal, []ir.LocalID{12}, post, false, "release"},
		{"wait", &target.Wrap{S: &ir.SyncOp{Acc: wait}}, noLocal, []ir.LocalID{13}, wait, false, "acquire"},
		{"lock", &target.Wrap{S: &ir.SyncOp{Acc: lock}}, noLocal, nil, lock, false, "acquire"},
		{"unlock", &target.Wrap{S: &ir.SyncOp{Acc: unlock}}, noLocal, nil, unlock, false, "release"},
		{"barrier", &target.Wrap{S: &ir.SyncOp{Acc: barrier}}, noLocal, nil, barrier, false, "acquire+release"},
	}
}

func syncClass(e effect) string {
	var c []string
	if e.acquires() {
		c = append(c, "acquire")
	}
	if e.releases() {
		c = append(c, "release")
	}
	return strings.Join(c, "+")
}

// TestEffectTable: every target statement kind, and every IR statement a
// Wrap carries, with the local it defines, the locals it reads, its
// access, its write flag and its acquire/release class.
func TestEffectTable(t *testing.T) {
	for _, r := range effectRows() {
		e := effectOf(r.s)
		if e.def != r.def {
			t.Errorf("%s: defines l%d, want l%d", r.name, e.def, r.def)
		}
		if got := appendReads(r.s, nil); !slices.Equal(got, r.reads) {
			t.Errorf("%s: reads %v, want %v", r.name, got, r.reads)
		}
		if e.acc != r.acc {
			t.Errorf("%s: access %v, want %v", r.name, e.acc, r.acc)
		}
		if e.writes() != r.write {
			t.Errorf("%s: writes %v, want %v", r.name, e.writes(), r.write)
		}
		if c := syncClass(e); c != r.class {
			t.Errorf("%s: class %q, want %q", r.name, c, r.class)
		}
	}
}

// TestEffectTableCoversEveryStatement fails when internal/target or
// internal/ir declares a statement type, or internal/ir an access kind,
// the table does not list. The two IR statements that lowering turns into
// initiations are never wrapped, and the model refuses them.
func TestEffectTableCoversEveryStatement(t *testing.T) {
	listed := map[string]bool{}
	kinds := map[ir.AccessKind]bool{}
	for _, r := range effectRows() {
		listed[fmt.Sprintf("%T", r.s)] = true
		if w, ok := r.s.(*target.Wrap); ok {
			listed[fmt.Sprintf("%T", w.S)] = true
		}
		if r.acc != nil {
			kinds[r.acc.Kind] = true
		}
	}
	for k := ir.AccRead; k.String() != "?"; k++ {
		if !kinds[k] {
			t.Errorf("no statement of the effect table makes a %s access", k)
		}
	}
	lowered := []ir.Stmt{&ir.Load{}, &ir.Store{}}
	for _, s := range lowered {
		listed[fmt.Sprintf("%T", s)] = true
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("effectOf classified a wrapped %T", s)
				}
			}()
			effectOf(&target.Wrap{S: s})
		}()
	}
	for pkg, dir := range map[string]string{"target": "../target", "ir": "../ir"} {
		for _, typ := range stmtTypes(t, dir) {
			if name := "*" + pkg + "." + typ; !listed[name] {
				t.Errorf("%s is a statement the effect table does not list", name)
			}
		}
	}
}

// stmtTypes returns the types that declare a stmtNode method in the
// package's non-test files.
func stmtTypes(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Name.Name != "stmtNode" {
					continue
				}
				if star, ok := fd.Recv.List[0].Type.(*ast.StarExpr); ok {
					out = append(out, star.X.(*ast.Ident).Name)
				}
			}
		}
	}
	if len(out) == 0 {
		t.Fatalf("no statement types found in %s", dir)
	}
	return out
}

// TestEffectAllocatesNothing: classifying a statement and listing its
// reads into a buffer the caller owns allocate nothing.
func TestEffectAllocatesNothing(t *testing.T) {
	rows := effectRows()
	buf := make([]ir.LocalID, 0, 16)
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		for _, r := range rows {
			e := effectOf(r.s)
			buf = appendReads(r.s, buf[:0])
			if e.writes() || e.acquires() || e.releases() {
				n++
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per pass over the table, want 0", allocs)
	}
}
