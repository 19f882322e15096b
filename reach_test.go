package splitc

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// tail returns the last n bytes of s.
func tail(s string, n int) string {
	if len(s) > n {
		return s[len(s)-n:]
	}
	return s
}
