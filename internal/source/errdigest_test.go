package source_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/apps"
	"repro/internal/source"
)

// parseErrorDigest is the SHA-256 that TestParseErrorDigest computes. A
// change to it is a change to what the parser accepts, how it prints, or
// the text or position of an error.
const parseErrorDigest = "1252290b200398e5284c5c3b4a980c7e0f30665dbfd6082a8be5e20e57aa63f3"

// TestParseErrorDigest pins the parser's answer to every single-token
// deletion of testdata/*.ms and of the five kernels at 4 processors: the
// exact error, message and position, for a mutant that is refused, and the
// printed program for one that still parses. One digest covers them all, so
// a lexer or parser rewrite that moves an error by a column, rewords one, or
// parses a mutant differently fails here.
//
// A mutant deletes a token and the comments after it, up to the whitespace
// before the next token.
func TestParseErrorDigest(t *testing.T) {
	type input struct{ name, src string }
	var inputs []input
	files, err := filepath.Glob("../../testdata/*.ms")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata: %v", err)
	}
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{filepath.Base(name), string(b)})
	}
	for _, k := range apps.All() {
		inputs = append(inputs, input{k.Name, k.Source(4, 1)})
	}
	h := sha256.New()
	mutants, parsed := 0, 0
	for _, in := range inputs {
		toks, err := source.Tokenize(in.src)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		offs := byteOffsets(in.src, toks)
		for i := 0; i+1 < len(toks); i++ {
			end := offs[i] + len(strings.TrimRight(in.src[offs[i]:offs[i+1]], " \t\r\n"))
			mutant := in.src[:offs[i]] + in.src[end:]
			mutants++
			fmt.Fprintf(h, "%s %d\n", in.name, i)
			if prog, err := source.Parse(mutant); err != nil {
				fmt.Fprintf(h, "error %s\n", err)
			} else {
				parsed++
				fmt.Fprintf(h, "parsed\n%s", source.Print(prog))
			}
		}
	}
	got := fmt.Sprintf("%x", h.Sum(nil))
	t.Logf("%d inputs, %d mutants, %d of them parse", len(inputs), mutants, parsed)
	if got != parseErrorDigest {
		t.Errorf("digest %s, want %s", got, parseErrorDigest)
	}
}

// byteOffsets converts each token's line:column position, which counts
// runes, to a byte offset into src.
func byteOffsets(src string, toks []source.Token) []int {
	lineStart := []int{0}
	for i := 0; i < len(src); i++ {
		if src[i] == '\n' {
			lineStart = append(lineStart, i+1)
		}
	}
	offs := make([]int, len(toks))
	for i, tok := range toks {
		off := lineStart[tok.Pos.Line-1]
		for c := 1; c < tok.Pos.Col; c++ {
			_, w := utf8.DecodeRuneInString(src[off:])
			off += w
		}
		offs[i] = off
	}
	return offs
}
