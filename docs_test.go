package splitc

import (
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
// above it the right count. EXPERIMENTS.md and CHANGES.md are run logs and
// are not checked.
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
