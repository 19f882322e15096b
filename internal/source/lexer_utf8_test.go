package source

import (
	"fmt"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"repro/internal/progen"
)

// RuneInputs exercise the lexer's byte-at-a-time fast path where it must
// fall back to decoding: identifiers with letters outside ASCII, multi-byte
// runes in comments and strings, and bytes that are not UTF-8 at all, in
// every position a rune can take. FuzzParse, in the package's external
// tests, starts from them too.
var RuneInputs = []string{
	"shared int Xé;\nfunc main() {\n    local int café = 1;\n    local int π2 = café * 2;\n    Xé = π2;\n}\n",
	"// héllo ✓ wörld\nfunc main() { /* ü\n ✓ */ local int x = 1; }\n",
	"func main() {\n    print(\"naïve ✓ 日本\", 1);\n    print(\"\\t✓\\n\", 2);\n}\n",
	"x/*é*/y /* 日本 */ z\n\tÉa_9 ä1 _ü",
	"local int a = 1;\xff",
	"// \xff\xfe bytes\nlocal int a = 1; /* \xc3 */ a = 2;",
	"print(\"a\xffb\", 1);",
	"local int \xe6\x97 = 1;",
	"é\n\xf0\x9f\x98\x80",
	"1.5e+3é 2e é3",
}

// refTokenize is the lexer's reference: it decodes every rune of the input
// up front (an invalid byte reads as utf8.RuneError of width 1) and lexes
// the rune slice with the unicode package's classes alone. Its tokens,
// positions and first error must be the lexer's.
func refTokenize(src string) ([]Token, error) {
	var rs []rune
	for len(src) > 0 {
		r, w := utf8.DecodeRuneInString(src)
		rs = append(rs, r)
		src = src[w:]
	}
	i, line, col := 0, 1, 1
	at := func(k int) rune {
		if k < len(rs) {
			return rs[k]
		}
		return -1
	}
	adv := func() rune {
		r := at(i)
		if r == -1 {
			return -1
		}
		i++
		if r == '\n' {
			line, col = line+1, 1
		} else {
			col++
		}
		return r
	}
	fail := func(pos Pos, format string, args ...any) ([]Token, error) {
		return nil, &LexError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
	}
	ident := func(r rune, start bool) bool {
		return r == '_' || unicode.IsLetter(r) || !start && unicode.IsDigit(r)
	}
	digit := func(r rune) bool { return '0' <= r && r <= '9' }
	var toks []Token
	for {
		// Whitespace and comments.
		for {
			switch r := at(i); {
			case r == ' ' || r == '\t' || r == '\r' || r == '\n':
				adv()
				continue
			case r == '/' && at(i+1) == '/':
				for at(i) != '\n' && at(i) != -1 {
					adv()
				}
				continue
			case r == '/' && at(i+1) == '*':
				start := Pos{line, col}
				adv()
				adv()
				for at(i) != -1 && !(at(i) == '*' && at(i+1) == '/') {
					adv()
				}
				if at(i) == -1 {
					return fail(start, "unterminated block comment")
				}
				adv()
				adv()
				continue
			}
			break
		}
		pos := Pos{line, col}
		r := at(i)
		start := i
		switch {
		case r == -1:
			return append(toks, Token{Kind: EOF, Pos: pos}), nil
		case ident(r, true):
			for ident(at(i), false) {
				adv()
			}
			text := string(rs[start:i])
			k, ok := keywords[text]
			if !ok {
				k = IDENT
			}
			toks = append(toks, Token{Kind: k, Text: text, Pos: pos})
			continue
		case digit(r):
			for digit(at(i)) {
				adv()
			}
			k := INTLIT
			if at(i) == '.' && digit(at(i+1)) {
				k = FLOATLIT
				adv()
				for digit(at(i)) {
					adv()
				}
			}
			if e := at(i); e == 'e' || e == 'E' {
				j := i + 1
				if at(j) == '+' || at(j) == '-' {
					j++
				}
				if digit(at(j)) {
					k = FLOATLIT
					for i < j {
						adv()
					}
					for digit(at(i)) {
						adv()
					}
				}
			}
			toks = append(toks, Token{Kind: k, Text: string(rs[start:i]), Pos: pos})
			continue
		case r == '"':
			adv()
			var sb strings.Builder
			for {
				c := at(i)
				if c == -1 || c == '\n' {
					return fail(pos, "unterminated string literal")
				}
				adv()
				if c == '"' {
					break
				}
				if c == '\\' {
					esc := adv()
					switch esc {
					case 'n':
						c = '\n'
					case 't':
						c = '\t'
					case '\\', '"':
						c = esc
					default:
						return fail(pos, "unknown escape sequence \\%s", string(esc))
					}
				}
				sb.WriteRune(c)
			}
			toks = append(toks, Token{Kind: STRINGLIT, Text: sb.String(), Pos: pos})
			continue
		}
		adv()
		two := map[string]Kind{"==": EQ, "!=": NEQ, "<=": LE, ">=": GE, "&&": ANDAND, "||": OROR}
		one := map[rune]Kind{'+': PLUS, '-': MINUS, '*': STAR, '/': SLASH, '%': PERCENT,
			'(': LPAREN, ')': RPAREN, '{': LBRACE, '}': RBRACE, '[': LBRACKET, ']': RBRACKET,
			',': COMMA, ';': SEMI, '=': ASSIGN, '!': NOT, '<': LT, '>': GT}
		if k, ok := two[string([]rune{r, at(i)})]; ok {
			adv()
			toks = append(toks, Token{Kind: k, Pos: pos})
			continue
		}
		if k, ok := one[r]; ok {
			toks = append(toks, Token{Kind: k, Pos: pos})
			continue
		}
		if r == '&' || r == '|' {
			return fail(pos, "unexpected character %q (did you mean %q?)", string(r), string([]rune{r, r}))
		}
		return fail(pos, "unexpected character %q", string(r))
	}
}

// TestLexMatchesRuneReference holds the lexer to the rune-decoding
// reference, token for token with positions, or error for error, on the
// non-ASCII inputs, a few ASCII edge cases and 20 generated programs.
func TestLexMatchesRuneReference(t *testing.T) {
	inputs := append([]string(nil), RuneInputs...)
	inputs = append(inputs, "+ - * / % = == != < <= > >= && || ! ( ) { } [ ] , ; & |",
		"shared int A[8] cyclic; lock L; event E; func main() { A[MYPROC] = PROCS; barrier; }",
		"\"unterminated\n", "\"bad \\q\"", "/* open", "12.x 3e+ 4E-2 5.25e7")
	for seed := int64(0); seed < 20; seed++ {
		inputs = append(inputs, progen.Generate(seed, progen.Options{Procs: 4}))
	}
	for _, src := range inputs {
		want, wantErr := refTokenize(src)
		got, gotErr := Tokenize(src)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("Tokenize(%q): error %v, the reference says %v", src, gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("Tokenize(%q): %d tokens, the reference %d\n got %v\nwant %v", src, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Tokenize(%q): token %d is %+v, the reference's %+v", src, i, got[i], want[i])
			}
		}
	}
}
