// Package source implements the front end of the MiniSplit language: the
// token set, lexer, abstract syntax tree, and recursive-descent parser.
//
// MiniSplit is the explicitly parallel SPMD source language described in
// section 2 of Krishnamurthy & Yelick (PLDI 1995): a global address space is
// provided only through shared scalars and distributed arrays, all shared
// accesses are blocking at the source level, and synchronization is expressed
// with post/wait events, barriers, and named locks. There are no global
// pointers, which lets the later analyses avoid full alias analysis.
package source

import (
	"fmt"
	"unicode/utf8"
)

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds, in three runs: the literal classes, the operators and
// delimiters (PLUS to SEMI), and the keywords (KWSHARED on). The lexer's
// keyword and operator tables are built from the last two runs of
// spellings, which spells every kind.
const (
	EOF Kind = iota
	IDENT
	INTLIT
	FLOATLIT
	STRINGLIT

	PLUS
	MINUS
	STAR
	SLASH
	PERCENT
	ASSIGN
	EQ
	NEQ
	LT
	LE
	GT
	GE
	ANDAND
	OROR
	NOT
	LPAREN
	RPAREN
	LBRACE
	RBRACE
	LBRACKET
	RBRACKET
	COMMA
	SEMI

	KWSHARED
	KWLOCAL
	KWEVENT
	KWLOCK
	KWUNLOCK
	KWFUNC
	KWIF
	KWELSE
	KWWHILE
	KWFOR
	KWBARRIER
	KWPOST
	KWWAIT
	KWRETURN
	KWPRINT
	KWINT
	KWFLOAT
	KWON
	KWCYCLIC
	KWBLOCKED
	KWMYPROC
	KWPROCS

	numKinds
)

// spellings is the one place a token is spelled: the text of each operator,
// delimiter and keyword, and a description of each literal class.
// Kind.String, the keyword lookup and the lexer's operator scan all read it.
var spellings = [numKinds]string{
	EOF:       "EOF",
	IDENT:     "identifier",
	INTLIT:    "integer literal",
	FLOATLIT:  "float literal",
	STRINGLIT: "string literal",
	PLUS:      "+",
	MINUS:     "-",
	STAR:      "*",
	SLASH:     "/",
	PERCENT:   "%",
	ASSIGN:    "=",
	EQ:        "==",
	NEQ:       "!=",
	LT:        "<",
	LE:        "<=",
	GT:        ">",
	GE:        ">=",
	ANDAND:    "&&",
	OROR:      "||",
	NOT:       "!",
	LPAREN:    "(",
	RPAREN:    ")",
	LBRACE:    "{",
	RBRACE:    "}",
	LBRACKET:  "[",
	RBRACKET:  "]",
	COMMA:     ",",
	SEMI:      ";",
	KWSHARED:  "shared",
	KWLOCAL:   "local",
	KWEVENT:   "event",
	KWLOCK:    "lock",
	KWUNLOCK:  "unlock",
	KWFUNC:    "func",
	KWIF:      "if",
	KWELSE:    "else",
	KWWHILE:   "while",
	KWFOR:     "for",
	KWBARRIER: "barrier",
	KWPOST:    "post",
	KWWAIT:    "wait",
	KWRETURN:  "return",
	KWPRINT:   "print",
	KWINT:     "int",
	KWFLOAT:   "float",
	KWON:      "on",
	KWCYCLIC:  "cyclic",
	KWBLOCKED: "blocked",
	KWMYPROC:  "MYPROC",
	KWPROCS:   "PROCS",
}

// keywords maps identifier spellings to keyword kinds.
var keywords = func() map[string]Kind {
	m := make(map[string]Kind, numKinds-KWSHARED)
	for k := KWSHARED; k < numKinds; k++ {
		m[spellings[k]] = k
	}
	return m
}()

// operators lists, for each byte that starts an operator or delimiter,
// the kinds spelled with it, two-character spellings first.
var operators = func() (ops [utf8.RuneSelf][]Kind) {
	for n := 2; n >= 1; n-- {
		for k := PLUS; k <= SEMI; k++ {
			if s := spellings[k]; len(s) == n {
				ops[s[0]] = append(ops[s[0]], k)
			}
		}
	}
	return ops
}()

// String returns the human-readable name of the kind.
func (k Kind) String() string {
	if 0 <= k && k < numKinds {
		return spellings[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Pos is a source position: 1-based line and column.
type Pos struct {
	Line int
	Col  int
}

// String renders the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// IsValid reports whether the position has been set.
func (p Pos) IsValid() bool { return p.Line > 0 }

// Token is a single lexical token with its source position. The Text of
// an IDENT, INTLIT or FLOATLIT is a slice of the source string, so a name
// taken from it keeps the whole source alive: hold it next to the source
// (as splitc.Program and Front do) or strings.Clone it.
type Token struct {
	Kind Kind
	Text string // raw text for IDENT, INTLIT, FLOATLIT, STRINGLIT
	Pos  Pos
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case IDENT, INTLIT, FLOATLIT, STRINGLIT:
		return fmt.Sprintf("%s %q", t.Kind, t.Text)
	default:
		return t.Kind.String()
	}
}
