package source

import (
	"errors"
	"sort"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// nestingShapes are the ways a program gets deep, each as a function of how
// deep: two recursions in the expression grammar, the spine a loop builds,
// and the three in the statement grammar.
var nestingShapes = []struct {
	name string
	big  int // a depth whose source is a few megabytes, under pscd's 8 MiB request limit
	src  func(k int) string
}{
	{"parens", 1_000_000, func(k int) string {
		return "func main() { x = " + strings.Repeat("(", k) + "1" + strings.Repeat(")", k) + "; }"
	}},
	{"sum", 3_000_000, func(k int) string {
		return "func main() { X = 1" + strings.Repeat("+1", k) + "; }"
	}},
	{"unary", 1_000_000, func(k int) string {
		return "func main() { x = " + strings.Repeat("-", k) + "1; }"
	}},
	{"subscripts", 1_000_000, func(k int) string {
		return "func main() { x = " + strings.Repeat("a[", k) + "0" + strings.Repeat("]", k) + "; }"
	}},
	{"arguments", 1_000_000, func(k int) string {
		return "func main() { x = " + strings.Repeat("f(", k) + "0" + strings.Repeat(")", k) + "; }"
	}},
	{"blocks", 1_000_000, func(k int) string {
		return "func main() " + strings.Repeat("{", k) + strings.Repeat("}", k)
	}},
	{"loops", 500_000, func(k int) string {
		return "func main() { " + strings.Repeat("while (1) { ", k) + strings.Repeat("} ", k) + "}"
	}},
	{"else-if", 500_000, func(k int) string {
		return "func main() { if (1) { }" + strings.Repeat(" else if (1) { }", k) + " }"
	}},
}

// checkTooDeep holds err to the contract of the bound: a *ParseError that
// says so, at a position inside src.
func checkTooDeep(t *testing.T, name, src string, err error) {
	t.Helper()
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("%s: error is %T (%v), want *ParseError", name, err, err)
	}
	if !strings.Contains(pe.Msg, "nested too deeply") {
		t.Fatalf("%s: error %q does not name the nesting bound", name, pe.Msg)
	}
	if !PosInside(src, pe.Pos) {
		t.Fatalf("%s: error position %s is outside the input", name, pe.Pos)
	}
}

// PosInside reports whether pos names a line of src and a column on it (one
// past the end counts: that is where EOF sits). It is exported to the
// package's external tests, FuzzParse's home, which cannot live here
// because its seeds import internal/apps.
func PosInside(src string, pos Pos) bool {
	lines := strings.Split(src, "\n")
	return pos.Line >= 1 && pos.Line <= len(lines) &&
		pos.Col >= 1 && pos.Col <= utf8.RuneCountInString(lines[pos.Line-1])+1
}

// TestNestingBoundIsExact: every shape parses up to some depth and fails with
// a positioned "nested too deeply" from the next one on, and that depth is
// maxNesting less the few fixed levels of the function body and statement
// around the shape.
func TestNestingBoundIsExact(t *testing.T) {
	for _, sh := range nestingShapes {
		first := sort.Search(2*maxNesting, func(k int) bool {
			_, err := Parse(sh.src(k))
			return err != nil
		})
		if first > maxNesting || first < maxNesting-8 {
			t.Errorf("%s: first depth refused is %d, want within 8 below maxNesting = %d", sh.name, first, maxNesting)
			continue
		}
		if _, err := Parse(sh.src(first - 1)); err != nil {
			t.Errorf("%s: depth %d, one inside the limit: %v", sh.name, first-1, err)
		}
		_, err := Parse(sh.src(first))
		checkTooDeep(t, sh.name, sh.src(first), err)
	}
}

// TestNestingAtRequestScale: the inputs that used to overflow the goroutine
// stack — megabytes of nesting, inside pscd's 8 MiB request limit — are
// refused for the price of the first maxNesting levels, not of the input.
func TestNestingAtRequestScale(t *testing.T) {
	for _, sh := range nestingShapes {
		src := sh.src(sh.big)
		if len(src) > 8<<20 {
			t.Fatalf("%s x %d is %d bytes, over the request limit", sh.name, sh.big, len(src))
		}
		start := time.Now()
		_, err := Parse(src)
		if d := time.Since(start); d > time.Second/4 {
			t.Errorf("%s x %d (%d bytes): refused after %v, want well under a second", sh.name, sh.big, len(src), d)
		}
		checkTooDeep(t, sh.name, src, err)
	}
}
