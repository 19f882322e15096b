package source

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/progen"
)

func kinds(t *testing.T, src string) []Kind {
	t.Helper()
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatalf("Tokenize(%q): %v", src, err)
	}
	var ks []Kind
	for _, tok := range toks {
		ks = append(ks, tok.Kind)
	}
	return ks
}

func TestLexEmpty(t *testing.T) {
	ks := kinds(t, "")
	if len(ks) != 1 || ks[0] != EOF {
		t.Fatalf("got %v, want [EOF]", ks)
	}
}

func TestLexOperators(t *testing.T) {
	src := "+ - * / % = == != < <= > >= && || ! ( ) { } [ ] , ;"
	want := []Kind{PLUS, MINUS, STAR, SLASH, PERCENT, ASSIGN, EQ, NEQ, LT, LE,
		GT, GE, ANDAND, OROR, NOT, LPAREN, RPAREN, LBRACE, RBRACE,
		LBRACKET, RBRACKET, COMMA, SEMI, EOF}
	got := kinds(t, src)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

func TestLexKeywords(t *testing.T) {
	for text, kind := range keywords {
		toks, err := Tokenize(text)
		if err != nil {
			t.Fatalf("Tokenize(%q): %v", text, err)
		}
		if toks[0].Kind != kind {
			t.Errorf("keyword %q: got %s, want %s", text, toks[0].Kind, kind)
		}
	}
}

func TestLexIdentVsKeyword(t *testing.T) {
	toks, err := Tokenize("sharedX barrier_ _wait MYPROCS")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if toks[i].Kind != IDENT {
			t.Errorf("token %d (%q): got %s, want identifier", i, toks[i].Text, toks[i].Kind)
		}
	}
}

func TestLexNumbers(t *testing.T) {
	tests := []struct {
		src  string
		kind Kind
		text string
	}{
		{"0", INTLIT, "0"},
		{"12345", INTLIT, "12345"},
		{"3.14", FLOATLIT, "3.14"},
		{"1e6", FLOATLIT, "1e6"},
		{"2.5e-3", FLOATLIT, "2.5e-3"},
		{"1E+2", FLOATLIT, "1E+2"},
	}
	for _, tc := range tests {
		toks, err := Tokenize(tc.src)
		if err != nil {
			t.Fatalf("Tokenize(%q): %v", tc.src, err)
		}
		if toks[0].Kind != tc.kind || toks[0].Text != tc.text {
			t.Errorf("%q: got %s %q, want %s %q", tc.src, toks[0].Kind, toks[0].Text, tc.kind, tc.text)
		}
	}
}

func TestLexNumberThenIdent(t *testing.T) {
	// "3e" is an int followed by identifier "e" (no exponent digits).
	toks, err := Tokenize("3 e x")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != INTLIT || toks[1].Kind != IDENT {
		t.Errorf("got %v %v, want INTLIT IDENT", toks[0], toks[1])
	}
	toks, err = Tokenize("3ex")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != INTLIT || toks[0].Text != "3" || toks[1].Kind != IDENT || toks[1].Text != "ex" {
		t.Errorf("3ex lexed as %v %v", toks[0], toks[1])
	}
}

func TestLexDotWithoutDigitsStaysInt(t *testing.T) {
	// "5." followed by non-digit: INTLIT then error (no '.' token exists).
	toks, err := Tokenize("5 x")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != INTLIT {
		t.Errorf("got %v, want INTLIT", toks[0])
	}
}

func TestLexComments(t *testing.T) {
	src := `
// line comment
x = 1; /* block
comment */ y = 2;`
	got := kinds(t, src)
	want := []Kind{IDENT, ASSIGN, INTLIT, SEMI, IDENT, ASSIGN, INTLIT, SEMI, EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, got[i], want[i])
		}
	}
}

func TestLexUnterminatedBlockComment(t *testing.T) {
	if _, err := Tokenize("/* never closed"); err == nil {
		t.Fatal("expected error for unterminated block comment")
	}
}

func TestLexStrings(t *testing.T) {
	toks, err := Tokenize(`"hello" "a\nb" "q\"q" "t\tt" "bs\\"`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"hello", "a\nb", `q"q`, "t\tt", `bs\`}
	for i, w := range want {
		if toks[i].Kind != STRINGLIT || toks[i].Text != w {
			t.Errorf("string %d: got %s %q, want %q", i, toks[i].Kind, toks[i].Text, w)
		}
	}
}

func TestLexStringErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, "\"newline\n\"", `"bad \x escape"`} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("Tokenize(%q): expected error", src)
		}
	}
}

func TestLexBadCharacters(t *testing.T) {
	for _, src := range []string{"&", "|", "#", "@", "$", "^", "~", "?", ":"} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("Tokenize(%q): expected error", src)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Tokenize("a\n  b\n\tc")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != (Pos{1, 1}) {
		t.Errorf("a at %v, want 1:1", toks[0].Pos)
	}
	if toks[1].Pos != (Pos{2, 3}) {
		t.Errorf("b at %v, want 2:3", toks[1].Pos)
	}
	if toks[2].Pos != (Pos{3, 2}) {
		t.Errorf("c at %v, want 3:2", toks[2].Pos)
	}
}

func TestLexErrorPosition(t *testing.T) {
	_, err := Tokenize("x = 1;\n@")
	if err == nil {
		t.Fatal("expected error")
	}
	le, ok := err.(*LexError)
	if !ok {
		t.Fatalf("error type %T, want *LexError", err)
	}
	if le.Pos.Line != 2 {
		t.Errorf("error at line %d, want 2", le.Pos.Line)
	}
}

func TestKindString(t *testing.T) {
	if EOF.String() != "EOF" || PLUS.String() != "+" || KWSHARED.String() != "shared" {
		t.Error("Kind.String produced unexpected values")
	}
	if Kind(9999).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestTokenString(t *testing.T) {
	tok := Token{Kind: IDENT, Text: "foo"}
	if !strings.Contains(tok.String(), "foo") {
		t.Errorf("Token.String() = %q, want it to mention foo", tok.String())
	}
	tok = Token{Kind: SEMI}
	if tok.String() != ";" {
		t.Errorf("Token.String() = %q, want \";\"", tok.String())
	}
}

// Property: lexing never panics, and either errors or ends with exactly one EOF.
func TestLexNeverPanics(t *testing.T) {
	f := func(s string) bool {
		toks, err := Tokenize(s)
		if err != nil {
			return true
		}
		if len(toks) == 0 {
			return false
		}
		for i, tok := range toks[:len(toks)-1] {
			if tok.Kind == EOF {
				t.Logf("EOF at index %d of %d", i, len(toks))
				return false
			}
		}
		return toks[len(toks)-1].Kind == EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: integer tokens round-trip through the lexer.
func TestLexIntRoundTrip(t *testing.T) {
	f := func(n uint32) bool {
		src := "x = " + itoa(uint64(n)) + ";"
		toks, err := Tokenize(src)
		if err != nil {
			return false
		}
		return toks[2].Kind == INTLIT && toks[2].Text == itoa(uint64(n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func itoa(n uint64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestTokenizeAllocatesOnce holds Tokenize to a handful of allocations on
// the 108 KB source of the acc2048 tier: the token slice is sized from the
// source length up front (a doubling ladder allocates 6.5 MB for this 1.3 MB
// result) and identifier and number texts are slices of the source.
func TestTokenizeAllocatesOnce(t *testing.T) {
	tier, ok := progen.FindScaleTier("acc2048")
	if !ok {
		t.Fatal("no acc2048 tier")
	}
	src := progen.Generate(tier.Seed, tier.Opts)
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) > len(src)/3+16 {
		t.Fatalf("%d tokens from %d bytes: the size estimate no longer covers the tier", len(toks), len(src))
	}
	if allocs := testing.AllocsPerRun(5, func() { Tokenize(src) }); allocs > 4 {
		t.Fatalf("Tokenize allocates %.0f times on the acc2048 source, want <= 4", allocs)
	}
}

// Tokenize lexes the entire input and returns all tokens up to and
// including the EOF token, or the first lexical error: the whole stream at
// once, which the lexer's tests compare. Parse reads tokens from a Lexer as
// it goes instead.
func Tokenize(src string) ([]Token, error) {
	lx := NewLexer(src)
	// MiniSplit source runs a little over three bytes to the token (the 2k
	// tier: 108,503 bytes, 32,699 tokens), so this is one allocation for
	// nearly every input instead of a doubling ladder twice its size.
	toks := make([]Token, 0, len(src)/3+16)
	for {
		t := lx.Next()
		if err := lx.Err(); err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}
