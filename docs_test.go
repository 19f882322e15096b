package splitc

import (
	"go/ast"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/delay"
)

// TestDocsNameLiveCode fails when DESIGN.md or README.md names something
// the tree no longer has: (i) every back-ticked Test…/Benchmark…/Fuzz… token
// must be a prefix of a func in some _test.go (a prefix, so
// `BenchmarkServeCompile` may stand for its Hit and Miss halves and
// `TestSmoke/workloads` for TestSmoke); (ii) DESIGN §18's "`Constraints`
// field" table must list exactly delay.Constraints' fields, and the sentence
// above it the right count; (iii) every back-ticked `pkg.Name` or
// `pkg.Type.Field` whose pkg names a package of the module must resolve to
// a declaration of that package (a lower-case second part, such as the
// metric `source.parse_ms`, is no identifier and is not checked).
// EXPERIMENTS.md and CHANGES.md are run logs and are not checked.
func TestDocsNameLiveCode(t *testing.T) {
	var funcs []string
	funcRE := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // build output, .git
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcRE.FindAllSubmatch(src, -1) {
			funcs = append(funcs, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	tokenRE := regexp.MustCompile("`((?:Test|Benchmark|Fuzz)\\w*)")
	docs := map[string]string{}
	for _, name := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = string(text)
		checked := 0
	tokens:
		for _, m := range tokenRE.FindAllStringSubmatch(docs[name], -1) {
			checked++
			for _, f := range funcs {
				if strings.HasPrefix(f, m[1]) {
					continue tokens
				}
			}
			t.Errorf("%s names `%s`, which is no test, benchmark or fuzz target in the tree", name, m[1])
		}
		if checked == 0 {
			t.Errorf("%s: no back-ticked test name found; the token pattern has rotted", name)
		}
	}

	decls := moduleDecls(t)
	identRE := regexp.MustCompile("`([a-z]\\w*)\\.([A-Z]\\w*)(?:\\.([A-Za-z_]\\w*))?")
	for _, name := range []string{"DESIGN.md", "README.md"} {
		for _, m := range identRE.FindAllStringSubmatch(docs[name], -1) {
			pkg, ok := decls[m[1]]
			if !ok {
				continue // not a package of the module
			}
			if id := m[2]; !pkg[id] || m[3] != "" && !pkg[id+"."+m[3]] {
				t.Errorf("%s names `%s`, which package %s does not declare", name, strings.TrimPrefix(m[0], "`"), m[1])
			}
		}
	}

	design := docs["DESIGN.md"]
	head := strings.Index(design, "\n| `Constraints` field |")
	if head < 0 {
		t.Fatal("DESIGN.md: the \"`Constraints` field\" table is gone")
	}
	var listed []string
	for _, row := range strings.Split(design[head+1:], "\n")[2:] { // header, separator
		if !strings.HasPrefix(row, "| `") {
			break
		}
		name, _, _ := strings.Cut(row[3:], "`")
		listed = append(listed, name)
	}
	typ := reflect.TypeOf(delay.Constraints{})
	var fields []string
	for i := 0; i < typ.NumField(); i++ {
		fields = append(fields, typ.Field(i).Name)
	}
	sort.Strings(listed)
	sort.Strings(fields)
	if !reflect.DeepEqual(listed, fields) {
		t.Errorf("DESIGN.md's Constraints table lists %v, delay.Constraints has %v", listed, fields)
	}
	counts := regexp.MustCompile("`Constraints` has (\\d+) fields").FindAllStringSubmatch(design[:head], -1)
	if len(counts) == 0 {
		t.Fatal("DESIGN.md: no \"`Constraints` has N fields\" sentence above the table")
	}
	if n, _ := strconv.Atoi(counts[len(counts)-1][1]); n != len(fields) {
		t.Errorf("DESIGN.md says `Constraints` has %d fields, delay.Constraints has %d", n, len(fields))
	}
}

// moduleDecls returns, by package name, what the module's non-test files
// declare at top level: each name, and for a type Type.Field and
// Type.Method. Packages that share a name share one set.
func moduleDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	decls := make(map[string]map[string]bool)
	productFiles(t, token.NewFileSet(), func(_, _ string, f *ast.File) {
		set := decls[f.Name.Name]
		if set == nil {
			set = make(map[string]bool)
			decls[f.Name.Name] = set
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					set[decl.Name.Name] = true
					continue
				}
				recv := decl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if ix, ok := recv.(*ast.IndexExpr); ok {
					recv = ix.X
				}
				if ix, ok := recv.(*ast.IndexListExpr); ok {
					recv = ix.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					set[id.Name+"."+decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						set[spec.Name.Name] = true
						if st, ok := spec.Type.(*ast.StructType); ok {
							for _, fld := range st.Fields.List {
								for _, id := range fld.Names {
									set[spec.Name.Name+"."+id.Name] = true
								}
								if len(fld.Names) == 0 { // embedded: named by its type
									typ := fld.Type
									if star, ok := typ.(*ast.StarExpr); ok {
										typ = star.X
									}
									if sel, ok := typ.(*ast.SelectorExpr); ok {
										typ = sel.Sel
									}
									if id, ok := typ.(*ast.Ident); ok {
										set[spec.Name.Name+"."+id.Name] = true
									}
								}
							}
						}
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							set[id.Name] = true
						}
					}
				}
			}
		}
	})
	delete(decls, "main")
	return decls
}
