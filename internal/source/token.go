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

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds. Keyword kinds follow the literal kinds.
const (
	EOF Kind = iota
	IDENT
	INTLIT
	FLOATLIT
	STRINGLIT

	// Operators and delimiters.
	PLUS     // +
	MINUS    // -
	STAR     // *
	SLASH    // /
	PERCENT  // %
	ASSIGN   // =
	EQ       // ==
	NEQ      // !=
	LT       // <
	LE       // <=
	GT       // >
	GE       // >=
	ANDAND   // &&
	OROR     // ||
	NOT      // !
	LPAREN   // (
	RPAREN   // )
	LBRACE   // {
	RBRACE   // }
	LBRACKET // [
	RBRACKET // ]
	COMMA    // ,
	SEMI     // ;

	// Keywords.
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
)

var kindNames = map[Kind]string{
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
var keywords = map[string]Kind{
	"shared":  KWSHARED,
	"local":   KWLOCAL,
	"event":   KWEVENT,
	"lock":    KWLOCK,
	"unlock":  KWUNLOCK,
	"func":    KWFUNC,
	"if":      KWIF,
	"else":    KWELSE,
	"while":   KWWHILE,
	"for":     KWFOR,
	"barrier": KWBARRIER,
	"post":    KWPOST,
	"wait":    KWWAIT,
	"return":  KWRETURN,
	"print":   KWPRINT,
	"int":     KWINT,
	"float":   KWFLOAT,
	"on":      KWON,
	"cyclic":  KWCYCLIC,
	"blocked": KWBLOCKED,
	"MYPROC":  KWMYPROC,
	"PROCS":   KWPROCS,
}

// String returns the human-readable name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
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
