package source_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/source"
)

// FuzzParse holds the parser to its contract on arbitrary bytes — what pscd
// hands it from the network. It never panics; an error is a *ParseError or
// a *LexError at a position inside the input; and a program it accepts
// round-trips: its printed form parses, and prints the same again. The
// printer parenthesises every operator, so the printed form of a program
// near the nesting bound may itself be refused for nesting, and only that.
//
// Seeds: testdata/*.ms, the five kernels, the two shapes that overflowed
// the stack before the bound (parentheses, a long sum), at twice its depth,
// and the lexer's non-ASCII inputs (identifiers, comments and strings with
// multi-byte runes, bytes that are not UTF-8).
func FuzzParse(f *testing.F) {
	files, err := filepath.Glob("../../testdata/*.ms")
	if err != nil || len(files) == 0 {
		f.Fatalf("no testdata seeds: %v", err)
	}
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, k := range apps.All() {
		f.Add([]byte(k.Source(4, 1)))
	}
	f.Add([]byte("func main() { x = " + strings.Repeat("(", 2000) + "1" + strings.Repeat(")", 2000) + "; }"))
	f.Add([]byte("shared int X;\nfunc main() { X = 1" + strings.Repeat("+1", 2000) + "; }"))
	for _, src := range source.RuneInputs {
		f.Add([]byte(src))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		src := string(data)
		prog, err := source.Parse(src)
		if err != nil {
			var pos source.Pos
			var pe *source.ParseError
			var le *source.LexError
			switch {
			case errors.As(err, &pe):
				pos = pe.Pos
			case errors.As(err, &le):
				pos = le.Pos
			default:
				t.Fatalf("error is %T (%v), want *ParseError or *LexError", err, err)
			}
			if !source.PosInside(src, pos) {
				t.Fatalf("error %q is positioned outside the input", err)
			}
			return
		}
		printed := source.Print(prog)
		again, err := source.Parse(printed)
		if err != nil {
			if strings.Contains(err.Error(), "nested too deeply") {
				return
			}
			t.Fatalf("printed form does not parse: %v\n%s", err, printed)
		}
		if reprinted := source.Print(again); reprinted != printed {
			t.Fatalf("print is not a fixed point\n--- first ---\n%s--- second ---\n%s", printed, reprinted)
		}
	})
}
