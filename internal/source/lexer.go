package source

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// LexError describes a lexical error with its position.
type LexError struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *LexError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer turns MiniSplit source text into a stream of tokens.
// Comments (// to end of line, and /* ... */) are skipped.
type Lexer struct {
	src  string
	off  int // byte offset of next rune
	line int
	col  int
	err  *LexError
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Err returns the first lexical error encountered, or nil.
func (lx *Lexer) Err() error {
	if lx.err == nil {
		return nil
	}
	return lx.err
}

func (lx *Lexer) errorf(pos Pos, format string, args ...any) {
	if lx.err == nil {
		lx.err = &LexError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
	}
}

// The three rune readers below take one byte as one rune when it is ASCII
// (below utf8.RuneSelf), which MiniSplit source nearly always is, and
// decode only otherwise (decodeAt); an invalid byte still reads as
// utf8.RuneError of width 1. Columns count runes either way.

// peek returns the next rune without consuming it, or -1 at EOF.
func (lx *Lexer) peek() rune {
	if lx.off < len(lx.src) && lx.src[lx.off] < utf8.RuneSelf {
		return rune(lx.src[lx.off])
	}
	r, _ := lx.decodeAt(lx.off)
	return r
}

// peek2 returns the rune after next, or -1.
func (lx *Lexer) peek2() rune {
	w := 1
	if lx.off < len(lx.src) && lx.src[lx.off] >= utf8.RuneSelf {
		_, w = lx.decodeAt(lx.off)
	}
	if off := lx.off + w; off < len(lx.src) && lx.src[off] < utf8.RuneSelf {
		return rune(lx.src[off])
	}
	r, _ := lx.decodeAt(lx.off + w)
	return r
}

// next consumes and returns one rune, maintaining line/col.
func (lx *Lexer) next() rune {
	r, w := rune(-1), 0
	if lx.off < len(lx.src) && lx.src[lx.off] < utf8.RuneSelf {
		r, w = rune(lx.src[lx.off]), 1
	} else if r, w = lx.decodeAt(lx.off); w == 0 {
		return -1
	}
	lx.off += w
	if r == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return r
}

// decodeAt decodes the rune at byte offset off, or returns -1 and width 0
// at or past the end.
func (lx *Lexer) decodeAt(off int) (rune, int) {
	if off >= len(lx.src) {
		return -1, 0
	}
	return utf8.DecodeRuneInString(lx.src[off:])
}

func (lx *Lexer) pos() Pos { return Pos{Line: lx.line, Col: lx.col} }

// skipSpace skips whitespace and comments.
func (lx *Lexer) skipSpace() {
	for {
		r := lx.peek()
		switch {
		case r == ' ' || r == '\t' || r == '\r':
			lx.off++
			lx.col++
		case r == '\n':
			lx.next()
		case r == '/' && lx.peek2() == '/':
			for lx.peek() != '\n' && lx.peek() != -1 {
				lx.next()
			}
		case r == '/' && lx.peek2() == '*':
			start := lx.pos()
			lx.next()
			lx.next()
			closed := false
			for lx.peek() != -1 {
				if lx.peek() == '*' && lx.peek2() == '/' {
					lx.next()
					lx.next()
					closed = true
					break
				}
				lx.next()
			}
			if !closed {
				lx.errorf(start, "unterminated block comment")
				return
			}
		default:
			return
		}
	}
}

func isIdentStart(r rune) bool {
	if r < utf8.RuneSelf {
		return r == '_' || 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z'
	}
	return unicode.IsLetter(r)
}

func isIdentCont(r rune) bool {
	if r < utf8.RuneSelf {
		return isASCIIIdentCont(byte(r))
	}
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// isASCIIIdentCont is isIdentCont for one byte: false for every byte at or
// above utf8.RuneSelf.
func isASCIIIdentCont(c byte) bool {
	return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
}

func isDigit(r rune) bool { return r >= '0' && r <= '9' }

// Next returns the next token, or an EOF token at end of input.
// After an error, it returns EOF; consult Err for the cause.
func (lx *Lexer) Next() Token {
	lx.skipSpace()
	if lx.err != nil {
		return Token{Kind: EOF, Pos: lx.pos()}
	}
	pos := lx.pos()
	r := lx.peek()
	switch {
	case r == -1:
		return Token{Kind: EOF, Pos: pos}
	case isIdentStart(r):
		return lx.lexIdent(pos)
	case isDigit(r):
		return lx.lexNumber(pos)
	case r == '"':
		return lx.lexString(pos)
	}
	lx.next()
	// An operator or delimiter: a two-character spelling if the next rune
	// completes one, else a one-character spelling.
	var ops []Kind
	if r < utf8.RuneSelf {
		ops = operators[r]
	}
	for _, k := range ops {
		if s := spellings[k]; len(s) == 1 || lx.peek() == rune(s[1]) {
			if len(s) == 2 {
				lx.next()
			}
			return Token{Kind: k, Pos: pos}
		}
	}
	if len(ops) > 0 {
		lx.errorf(pos, "unexpected character %q (did you mean %q?)", string(r), spellings[ops[0]])
	} else {
		lx.errorf(pos, "unexpected character %q", string(r))
	}
	return Token{Kind: EOF, Pos: pos}
}

// lexIdent and lexNumber consume runes of the source unchanged, so a
// token's text is a slice of it, not a copy.
func (lx *Lexer) lexIdent(pos Pos) Token {
	start := lx.off
	// An ASCII identifier byte is one rune and one column.
	for lx.off < len(lx.src) && isASCIIIdentCont(lx.src[lx.off]) {
		lx.off++
		lx.col++
	}
	for isIdentCont(lx.peek()) {
		lx.next()
	}
	text := lx.src[start:lx.off]
	if k, ok := keywords[text]; ok {
		return Token{Kind: k, Text: text, Pos: pos}
	}
	return Token{Kind: IDENT, Text: text, Pos: pos}
}

func (lx *Lexer) lexNumber(pos Pos) Token {
	start := lx.off
	for isDigit(lx.peek()) {
		lx.next()
	}
	isFloat := false
	if lx.peek() == '.' && isDigit(lx.peek2()) {
		isFloat = true
		lx.next()
		for isDigit(lx.peek()) {
			lx.next()
		}
	}
	if lx.peek() == 'e' || lx.peek() == 'E' {
		save := *lx
		lx.next()
		if lx.peek() == '+' || lx.peek() == '-' {
			lx.next()
		}
		if isDigit(lx.peek()) {
			isFloat = true
			for isDigit(lx.peek()) {
				lx.next()
			}
		} else {
			*lx = save // 'e' belongs to a following identifier
		}
	}
	if isFloat {
		return Token{Kind: FLOATLIT, Text: lx.src[start:lx.off], Pos: pos}
	}
	return Token{Kind: INTLIT, Text: lx.src[start:lx.off], Pos: pos}
}

func (lx *Lexer) lexString(pos Pos) Token {
	lx.next() // consume opening quote
	var sb strings.Builder
	for {
		r := lx.peek()
		if r == -1 || r == '\n' {
			lx.errorf(pos, "unterminated string literal")
			return Token{Kind: EOF, Pos: pos}
		}
		lx.next()
		if r == '"' {
			break
		}
		if r == '\\' {
			esc := lx.next()
			switch esc {
			case 'n':
				sb.WriteRune('\n')
			case 't':
				sb.WriteRune('\t')
			case '\\':
				sb.WriteRune('\\')
			case '"':
				sb.WriteRune('"')
			default:
				lx.errorf(pos, "unknown escape sequence \\%s", string(esc))
				return Token{Kind: EOF, Pos: pos}
			}
			continue
		}
		sb.WriteRune(r)
	}
	return Token{Kind: STRINGLIT, Text: sb.String(), Pos: pos}
}
