package splitc

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// calledFromOtherTests lists the functions of non-test files that no binary
// reaches but that tests of other packages call, each with one such test
// file. TestProductCallsItsFunctions checks that the file exists, belongs to
// another package and names the function; a function only its own
// package's tests call belongs in that package's _test.go files instead.
var calledFromOtherTests = map[string]string{
	"repro.MustCompile":                                  "internal/serve/serve_test.go",
	"repro/internal/codegen.Generate":                    "pipeline_test.go",
	"repro/internal/diag.(*Bag).BySeverity":              "internal/pass/pass_test.go",
	"repro/internal/ir.MustBuild":                        "internal/delay/delay_test.go",
	"repro/internal/ir.(*PostDomTree).PostDominates":     "internal/syncanal/step4_test.go",
	"repro/internal/ir.(*PostDomTree).StmtPostDominates": "internal/syncanal/step4_test.go",
	"repro/internal/progen.BigProc":                      "internal/interp/engines_diff_test.go",
	"repro/internal/serve/client.(*Client).Stats":        "internal/serve/serve_test.go",
	"repro/internal/serve/client.IsDraining":             "internal/serve/serve_test.go",
	"repro/internal/serve/client.IsTimeout":              "internal/serve/serve_test.go",
	"repro/internal/source.(*Program).Func":              "internal/sem/sem_test.go",
	"repro/internal/source.MustParse":                    "internal/sem/sem_test.go",
	"repro/internal/target.(*Prog).StmtString":           "internal/codegen/codegen_test.go",
	"repro/internal/vm.(*Machine).Dispatched":            "internal/interp/export_test.go",
}

// TestProductCallsItsFunctions holds every function declared in a non-test
// file to being reached by some binary the module builds: the commands, the
// benchmark driver and the examples. It links each with inlining off and
// reads the linker's dependency dump (-ldflags=-dumpdep), which names every
// function the linker keeps. Exempt are generic functions, which the dump
// names by instantiation, and interface marker methods — empty bodies, no
// parameters, no results — which exist only to be declared. Everything else
// that no binary reaches must be deleted, moved into its package's test
// files, or listed in calledFromOtherTests.
func TestProductCallsItsFunctions(t *testing.T) {
	if testing.Short() {
		t.Skip("links every binary of the module")
	}
	mains := []string{"./cmd/...", "./benchmark", "./examples/..."}
	cmd := exec.Command("go", append([]string{"build", "-o", t.TempDir(), "-gcflags=all=-l", "-ldflags=-dumpdep"}, mains...)...)
	var dump bytes.Buffer
	cmd.Stderr = &dump
	if err := cmd.Run(); err != nil {
		t.Fatalf("go build: %v\n%s", err, tail(dump.String(), 2000))
	}
	reached := reachedSymbols(t, &dump)

	decls := productFuncs(t)
	var dead []string
	for _, d := range decls {
		if reached[d.sym] || d.ptrSym != "" && reached[d.ptrSym] {
			if file, ok := calledFromOtherTests[d.sym]; ok {
				t.Errorf("%s is reached by a binary; drop its calledFromOtherTests entry (%s)", d.sym, file)
			}
			continue
		}
		if _, ok := calledFromOtherTests[d.sym]; ok {
			continue
		}
		dead = append(dead, d.sym+" ("+d.pos+")")
	}
	sort.Strings(dead)
	for _, s := range dead {
		t.Errorf("no binary calls %s", s)
	}

	declared := make(map[string]string)
	for _, d := range decls {
		declared[d.sym] = d.dir
	}
	for sym, file := range calledFromOtherTests {
		dir, ok := declared[sym]
		if !ok {
			t.Errorf("calledFromOtherTests names %s, which no non-test file declares", sym)
			continue
		}
		if !strings.HasSuffix(file, "_test.go") || filepath.Dir(file) == dir {
			t.Errorf("calledFromOtherTests: %s must name a test file of another package, not %s", sym, file)
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Errorf("calledFromOtherTests: %s: %v", sym, err)
			continue
		}
		name := sym[strings.LastIndexAny(sym, ".)")+1:]
		if !regexp.MustCompile(`\.` + name + `\b`).Match(src) {
			t.Errorf("calledFromOtherTests: %s does not call %s", file, name)
		}
	}
}

// reachedSymbols collects every symbol named on either side of a dependency
// edge, with type arguments dropped. A main package's symbols are all named
// main.…, so they are qualified with the package the dump's "# path"
// header line names.
func reachedSymbols(t *testing.T, dump *bytes.Buffer) map[string]bool {
	t.Helper()
	generic := regexp.MustCompile(`\[[^\[\]]*\]`)
	reached := make(map[string]bool)
	pkg := ""
	sc := bufio.NewScanner(dump)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# ") {
			pkg = strings.TrimPrefix(line, "# ")
			continue
		}
		for _, sym := range strings.Split(line, " -> ") {
			for generic.MatchString(sym) {
				sym = generic.ReplaceAllString(sym, "")
			}
			if strings.HasPrefix(sym, "main.") {
				sym = pkg + sym[len("main"):]
			}
			if sym != "" {
				reached[sym] = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return reached
}

// funcDecl is one function or method declared in a non-test file: its
// linker symbol, the symbol of its pointer-receiver wrapper (a value
// method the dump reaches only through it), and where it is.
type funcDecl struct {
	sym, ptrSym, pos, dir string
}

// productFuncs lists the non-generic functions and methods of the module's
// non-test files, minus init, main and interface marker methods.
func productFuncs(t *testing.T) []funcDecl {
	t.Helper()
	var decls []funcDecl
	fset := token.NewFileSet()
	productFiles(t, fset, func(pkg, dir string, f *ast.File) {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Type.TypeParams != nil {
				continue
			}
			name := fd.Name.Name
			if fd.Recv == nil && (name == "init" || name == "main" || name == "_") {
				continue
			}
			d := funcDecl{pos: fset.Position(fd.Pos()).String(), dir: dir}
			if fd.Recv == nil {
				d.sym = pkg + "." + name
			} else {
				if len(fd.Body.List) == 0 && fd.Type.Params.NumFields() == 0 && fd.Type.Results.NumFields() == 0 {
					continue // an interface marker
				}
				recv, ptr := fd.Recv.List[0].Type, false
				if star, ok := recv.(*ast.StarExpr); ok {
					recv, ptr = star.X, true
				}
				var typ string
				switch r := recv.(type) {
				case *ast.Ident:
					typ = r.Name
				case *ast.IndexExpr, *ast.IndexListExpr:
					continue // a method of a generic type
				default:
					t.Fatalf("%s: receiver %T", d.pos, r)
				}
				d.ptrSym = pkg + ".(*" + typ + ")." + name
				if ptr {
					d.sym = d.ptrSym
				} else {
					d.sym = pkg + "." + typ + "." + name
				}
			}
			decls = append(decls, d)
		}
	})
	return decls
}

// productFiles parses the module's non-test files, outside testdata and
// dot directories, and hands each to visit with its package path and
// directory.
func productFiles(t *testing.T, fset *token.FileSet, visit func(pkg, dir string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		pkg := "repro"
		if dir != "." {
			pkg += "/" + filepath.ToSlash(dir)
		}
		visit(pkg, dir, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// tail returns the last n bytes of s.
func tail(s string, n int) string {
	if len(s) > n {
		return s[len(s)-n:]
	}
	return s
}

// readByTests lists the fields of non-test structs that no non-test
// expression reads but that a test does, each with one such test file:
// the work counters tests pin (the simulator's VM crossings and queue
// pushes, code generation's pass work), the follower count tests wait on,
// and results only tests look at. TestProductReadsItsFields checks that
// the file exists, is a test file and names the field.
var readByTests = map[string]string{
	"repro/internal/codegen.Result.Prog":          "pipeline_test.go",
	"repro/internal/codegen.Result.Stats":         "pipeline_test.go",
	"repro/internal/codegen.passWork.LICMLoops":   "internal/codegen/globalreuse_test.go",
	"repro/internal/codegen.passWork.LICMVisits":  "internal/codegen/globalreuse_test.go",
	"repro/internal/codegen.passWork.ReuseScans":  "internal/codegen/globalreuse_test.go",
	"repro/internal/codegen.passWork.ReuseSweeps": "internal/codegen/globalreuse_test.go",
	"repro/internal/interp.evq.heapPushes":        "internal/interp/queue_test.go",
	"repro/internal/interp.hostCalls.ChargeALUN":  "internal/interp/queue_traffic_test.go",
	"repro/internal/interp.hostCalls.EnterBlock":  "internal/interp/queue_traffic_test.go",
	"repro/internal/interp.hostCalls.Get":         "internal/interp/queue_traffic_test.go",
	"repro/internal/interp.hostCalls.Print":       "internal/interp/queue_traffic_test.go",
	"repro/internal/interp.hostCalls.Put":         "internal/interp/queue_traffic_test.go",
	"repro/internal/interp.hostCalls.Store":       "internal/interp/queue_traffic_test.go",
	"repro/internal/interp.hostCalls.Sync":        "internal/interp/queue_traffic_test.go",
	"repro/internal/interp.hostCalls.SyncCtr":     "internal/interp/queue_traffic_test.go",
	"repro/internal/progen.ScaleTier.Accesses":    "internal/progen/scale_test.go",
	"repro/internal/serve.flightCall.dups":        "internal/serve/singleflight_test.go",
}

// unreadOnPurpose lists the fields the product writes so that nothing
// reads them, each with the reason.
var unreadOnPurpose = map[string]string{
	"repro/benchmark.hostRefState.sink": "the host reference kernel folds its results in, so the compiler cannot drop the work it times",
}

// TestProductReadsItsFields holds every field of a struct declared in a
// non-test file to being read by some non-test expression. A read is a
// selector that resolves to the field, generic fields through their
// origin, and is not the direct target of =, op= or ++/-- once parens and
// indexing are stripped; a composite-literal key is a write. Exempt are
// the fields of json-tagged wire structs, which encoding/json reads, and
// of struct types whose values are compared whole or used as map keys.
// Everything else that no non-test expression reads must be deleted or
// listed in readByTests.
func TestProductReadsItsFields(t *testing.T) {
	fields, read := productFields(t)
	var unread []string
	for name, f := range fields {
		_, hook := readByTests[name]
		_, kept := unreadOnPurpose[name]
		switch {
		case read[f.v] && hook:
			t.Errorf("%s is read by the product; drop its readByTests entry", name)
		case read[f.v] && kept:
			t.Errorf("%s is read by the product; drop its unreadOnPurpose entry", name)
		case !read[f.v] && !hook && !kept:
			unread = append(unread, name+" ("+f.pos+")")
		}
	}
	sort.Strings(unread)
	for _, s := range unread {
		t.Errorf("no non-test expression reads %s", s)
	}
	for name := range unreadOnPurpose {
		if _, ok := fields[name]; !ok {
			t.Errorf("unreadOnPurpose names %s, which no non-test struct declares", name)
		}
	}
	for name, file := range readByTests {
		if _, ok := fields[name]; !ok {
			t.Errorf("readByTests names %s, which no non-test struct declares", name)
			continue
		}
		if !strings.HasSuffix(file, "_test.go") {
			t.Errorf("readByTests: %s must name a test file, not %s", name, file)
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Errorf("readByTests: %s: %v", name, err)
			continue
		}
		field := name[strings.LastIndex(name, ".")+1:]
		if !regexp.MustCompile(`\.` + field + `\b`).Match(src) {
			t.Errorf("readByTests: %s does not read %s", file, field)
		}
	}
}

// structField is one field of a struct declared in a non-test file.
type structField struct {
	v     *types.Var
	owner *types.Struct
	pos   string
}

// productFields type-checks the module's non-test files and returns their
// struct fields, by package path, declaring type or variable, and field
// name, together with the set of fields some expression reads, fields of
// exempt structs included.
func productFields(t *testing.T) (map[string]structField, map[*types.Var]bool) {
	t.Helper()
	fset := token.NewFileSet()
	files := make(map[string][]*ast.File) // by package path
	productFiles(t, fset, func(pkg, _ string, f *ast.File) {
		files[pkg] = append(files[pkg], f)
	})

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	imp := &moduleImporter{
		fset:  fset,
		files: files,
		info:  info,
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:  make(map[string]*types.Package),
	}
	paths := make([]string, 0, len(files))
	for path := range files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := imp.Import(path); err != nil {
			t.Fatal(err)
		}
	}

	fields := make(map[string]structField)
	read := make(map[*types.Var]bool)
	for _, path := range paths {
		for _, f := range files[path] {
			declaredFields(f, path, info, fset, fields)
			readFields(f, info, read)
		}
	}
	// Fields of wire structs and of structs compared whole count as read.
	var exempt func(typ types.Type)
	exempt = func(typ types.Type) {
		switch u := typ.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i).Origin(); !read[f] {
					read[f] = true
					exempt(f.Type())
				}
			}
		case *types.Array:
			exempt(u.Elem())
		}
	}
	for _, sf := range fields {
		for i := 0; i < sf.owner.NumFields(); i++ {
			if strings.Contains(sf.owner.Tag(i), `json:"`) {
				exempt(sf.owner)
				break
			}
		}
	}
	for _, tv := range info.Types {
		if m, ok := tv.Type.(*types.Map); ok {
			exempt(m.Key())
		}
	}
	for _, path := range paths {
		for _, f := range files[path] {
			ast.Inspect(f, func(n ast.Node) bool {
				if b, ok := n.(*ast.BinaryExpr); ok && (b.Op == token.EQL || b.Op == token.NEQ) {
					exempt(info.Types[b.X].Type)
				}
				return true
			})
		}
	}
	return fields, read
}

// declaredFields adds the fields of every struct type f spells to fields,
// each named by its package path, the type or variable it is declared
// with, and the fields enclosing it.
func declaredFields(f *ast.File, pkg string, info *types.Info, fset *token.FileSet, fields map[string]structField) {
	seen := make(map[*ast.StructType]bool)
	var collect func(n ast.Node, name string)
	collect = func(n ast.Node, name string) {
		ast.Inspect(n, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || seen[st] {
				return true
			}
			seen[st] = true
			owner, _ := info.Types[st].Type.(*types.Struct)
			for _, fld := range st.Fields.List {
				idents := fld.Names
				if len(idents) == 0 { // embedded: Defs holds the field under the type's name
					ast.Inspect(fld.Type, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok && info.Defs[id] != nil {
							idents = append(idents, id)
						}
						return true
					})
				}
				for _, id := range idents {
					if v, ok := info.Defs[id].(*types.Var); ok && v.IsField() {
						fields[name+"."+v.Name()] = structField{v, owner, fset.Position(id.Pos()).String()}
					}
					collect(fld.Type, name+"."+id.Name)
				}
			}
			return false
		})
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			collect(n.Type, pkg+"."+n.Name.Name)
		case *ast.ValueSpec:
			if n.Type != nil {
				collect(n.Type, pkg+"."+n.Names[0].Name)
			}
		case *ast.StructType:
			collect(n, pkg+".struct@"+fset.Position(n.Pos()).String())
		}
		return true
	})
}

// readFields marks every field f's expressions read, through selectors
// that are not the direct target of an assignment, and every embedded
// field a selector passes through.
func readFields(f *ast.File, info *types.Info, read map[*types.Var]bool) {
	written := make(map[*ast.SelectorExpr]bool)
	target := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
				continue
			case *ast.IndexExpr:
				e = x.X
				continue
			case *ast.IndexListExpr:
				e = x.X
				continue
			case *ast.SelectorExpr:
				written[x] = true
			}
			return
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				target(e)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				target(n.Key)
				target(n.Value)
			}
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s := info.Selections[sel]
		if s == nil {
			return true
		}
		// The embedded fields the selector passes through are read.
		typ := s.Recv()
		for _, i := range s.Index()[:len(s.Index())-1] {
			if p, ok := typ.Underlying().(*types.Pointer); ok {
				typ = p.Elem()
			}
			f := typ.Underlying().(*types.Struct).Field(i)
			read[f.Origin()] = true
			typ = f.Type()
		}
		if v, ok := s.Obj().(*types.Var); ok && !written[sel] {
			read[v.Origin()] = true
		}
		return true
	})
}

// moduleImporter type-checks the module's packages from their non-test
// files, each once, into one shared Info, and the standard library from
// source.
type moduleImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	info  *types.Info
	std   types.ImporterFrom
	pkgs  map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	files, ok := m.files[path]
	if !ok {
		return m.std.ImportFrom(path, "", 0)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = pkg
	return pkg, nil
}
