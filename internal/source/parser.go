package source

import (
	"fmt"
	"math"
	"strconv"
)

// ParseError describes a syntax error with its position.
type ParseError struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *ParseError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// maxNesting bounds how deep a program nests: blocks inside blocks (an
// else-if chain counts a level per link), expressions inside parentheses,
// subscripts, call arguments and unary operators, and operands along a chain
// of binary operators — the one height here a loop builds rather than a
// recursion. No path from a function body to a leaf of the tree the parser
// returns passes through more than maxNesting such levels, so every later
// recursion over that tree (sem, ir, fold, the printers) is bounded with it,
// and so is the parser's own stack: without the bound, a request of a
// million parentheses, or a sum of three million terms, overflowed the
// goroutine stack, which is fatal to the process and which recover cannot
// catch. It is a constant, not an option, because nothing legitimate comes
// near it: of the programs in this tree the five kernels reach 16 levels
// (Epithel; any machine size), testdata/ 12, the examples 7, the three
// progen scale tiers 9 and 4 000 generated programs 11.
const maxNesting = 1000

// Parser is a recursive-descent parser for MiniSplit. It reads tokens from
// the lexer as it goes, one ahead of the current one, so refusing an input
// costs what was read of it, not its length.
type Parser struct {
	lx        *Lexer
	tok, next Token // the current token and the one after it
	// depth counts the nesting levels open at the current token; h is the
	// height of the expression most recently parsed, in the same levels.
	depth, h int
}

// Parse lexes and parses a complete MiniSplit program. A lexical error the
// lexer has reached takes precedence over the syntax error it causes (the
// lexer answers EOF from there on).
func Parse(src string) (*Program, error) {
	p := &Parser{lx: NewLexer(src)}
	p.tok, p.next = p.lx.Next(), p.lx.Next()
	prog, err := p.parseProgram()
	if lerr := p.lx.Err(); lerr != nil {
		return nil, lerr
	}
	return prog, err
}

// MustParse parses src and panics on error. It is intended for tests and
// for embedding known-good kernels.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

func (p *Parser) cur() Token  { return p.tok }
func (p *Parser) peek() Token { return p.next }

func (p *Parser) advance() Token {
	t := p.tok
	if t.Kind != EOF {
		p.tok, p.next = p.next, p.lx.Next()
	}
	return t
}

func (p *Parser) errorf(pos Pos, format string, args ...any) error {
	return &ParseError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) tooDeep(pos Pos) error {
	return p.errorf(pos, "nested too deeply (more than %d levels)", maxNesting)
}

// enter opens a nesting level at the current token; the caller closes it
// with p.depth-- once the construct is parsed. A level always has room for
// a leaf under it.
func (p *Parser) enter() error {
	if p.depth++; p.depth >= maxNesting {
		return p.tooDeep(p.cur().Pos)
	}
	return nil
}

func (p *Parser) expect(k Kind) (Token, error) {
	if p.cur().Kind != k {
		return Token{}, p.errorf(p.cur().Pos, "expected %s, found %s", k, p.cur())
	}
	return p.advance(), nil
}

func (p *Parser) accept(k Kind) bool {
	if p.cur().Kind == k {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) parseProgram() (*Program, error) {
	prog := &Program{}
	for p.cur().Kind != EOF {
		d, err := p.parseDecl()
		if err != nil {
			return nil, err
		}
		prog.Decls = append(prog.Decls, d)
	}
	return prog, nil
}

func (p *Parser) parseDecl() (Decl, error) {
	switch p.cur().Kind {
	case KWSHARED:
		return p.parseSharedDecl()
	case KWEVENT, KWLOCK:
		return p.parseSyncDecl()
	case KWFUNC:
		return p.parseFuncDecl()
	default:
		return nil, p.errorf(p.cur().Pos,
			"expected top-level declaration (shared, event, lock, or func), found %s", p.cur())
	}
}

func (p *Parser) parseType() (Type, error) {
	switch p.cur().Kind {
	case KWINT:
		p.advance()
		return TypeInt, nil
	case KWFLOAT:
		p.advance()
		return TypeFloat, nil
	default:
		return TypeInvalid, p.errorf(p.cur().Pos, "expected type (int or float), found %s", p.cur())
	}
}

func (p *Parser) parseSharedDecl() (Decl, error) {
	pos := p.advance().Pos // shared
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	d := &SharedDecl{Pos: pos, Name: name.Text, Type: typ}
	if d.Size, err = p.parseSubscript(); err != nil {
		return nil, err
	}
	if d.Size != nil {
		switch p.cur().Kind {
		case KWCYCLIC:
			p.advance()
			d.Layout = LayoutCyclic
		case KWBLOCKED:
			p.advance()
			d.Layout = LayoutBlocked
		}
	} else {
		if p.accept(KWON) {
			d.Owner, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if p.accept(ASSIGN) {
			d.Init, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	return d, nil
}

// parseSyncDecl parses the declaration of an event or a lock, or of an
// array of them: "event name [size]? ;", and likewise for lock.
func (p *Parser) parseSyncDecl() (Decl, error) {
	kw := p.advance() // event or lock
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	size, err := p.parseSubscript()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	if kw.Kind == KWEVENT {
		return &EventDecl{Pos: kw.Pos, Name: name.Text, Size: size}, nil
	}
	return &LockDecl{Pos: kw.Pos, Name: name.Text, Size: size}, nil
}

func (p *Parser) parseFuncDecl() (Decl, error) {
	pos := p.advance().Pos // func
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	f := &FuncDecl{Pos: pos, Name: name.Text, Result: TypeVoid}
	for p.cur().Kind != RPAREN {
		if len(f.Params) > 0 {
			if _, err := p.expect(COMMA); err != nil {
				return nil, err
			}
		}
		ppos := p.cur().Pos
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		pname, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		f.Params = append(f.Params, Param{Pos: ppos, Name: pname.Text, Type: typ})
	}
	p.advance() // )
	if p.cur().Kind == KWINT || p.cur().Kind == KWFLOAT {
		f.Result, _ = p.parseType()
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

func (p *Parser) parseBlock() (*BlockStmt, error) {
	lb, err := p.expect(LBRACE)
	if err != nil {
		return nil, err
	}
	if err := p.enter(); err != nil {
		return nil, err
	}
	b := &BlockStmt{Pos: lb.Pos}
	for p.cur().Kind != RBRACE {
		if p.cur().Kind == EOF {
			return nil, p.errorf(p.cur().Pos, "unexpected end of input in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.advance() // }
	p.depth--
	return b, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	switch p.cur().Kind {
	case LBRACE:
		return p.parseBlock()
	case KWLOCAL:
		return p.parseLocalDecl()
	case KWIF:
		return p.parseIf()
	case KWWHILE:
		return p.parseWhile()
	case KWFOR:
		return p.parseFor()
	case KWBARRIER:
		pos := p.advance().Pos
		// Allow both "barrier;" and "barrier();".
		if p.accept(LPAREN) {
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return &BarrierStmt{Pos: pos}, nil
	case KWPOST, KWWAIT, KWLOCK, KWUNLOCK:
		return p.parseSyncStmt()
	case KWRETURN:
		pos := p.advance().Pos
		r := &ReturnStmt{Pos: pos}
		if p.cur().Kind != SEMI {
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			r.Value = v
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return r, nil
	case KWPRINT:
		pos := p.advance().Pos
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		pr := &PrintStmt{Pos: pos}
		for p.cur().Kind != RPAREN {
			if len(pr.Args) > 0 {
				if _, err := p.expect(COMMA); err != nil {
					return nil, err
				}
			}
			a, err := p.parsePrintArg()
			if err != nil {
				return nil, err
			}
			pr.Args = append(pr.Args, a)
		}
		p.advance() // )
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return pr, nil
	case IDENT:
		// assignment or call statement
		if p.peek().Kind == LPAREN {
			call, err := p.parseCall()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(SEMI); err != nil {
				return nil, err
			}
			return &CallStmt{Pos: call.Pos, Call: call}, nil
		}
		st, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return st, nil
	default:
		return nil, p.errorf(p.cur().Pos, "expected statement, found %s", p.cur())
	}
}

// parseSyncStmt parses a statement on one event or lock:
// "post ( ref ) ;", and likewise for wait, lock and unlock.
func (p *Parser) parseSyncStmt() (Stmt, error) {
	kw := p.advance()
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	ref, err := p.parseVarRef()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	switch kw.Kind {
	case KWPOST:
		return &PostStmt{Pos: kw.Pos, Event: ref}, nil
	case KWWAIT:
		return &WaitStmt{Pos: kw.Pos, Event: ref}, nil
	case KWLOCK:
		return &LockStmt{Pos: kw.Pos, Lock: ref}, nil
	}
	return &UnlockStmt{Pos: kw.Pos, Lock: ref}, nil
}

// parseVarRef parses "ident [index]?".
func (p *Parser) parseVarRef() (*VarRef, error) {
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	ref := &VarRef{Pos: name.Pos, Name: name.Text}
	if ref.Index, err = p.parseSubscript(); err != nil {
		return nil, err
	}
	return ref, nil
}

// parseSubscript parses an optional "[ expr ]" and returns the expression,
// or nil where no "[" follows.
func (p *Parser) parseSubscript() (Expr, error) {
	if !p.accept(LBRACKET) {
		return nil, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RBRACKET); err != nil {
		return nil, err
	}
	return e, nil
}

func (p *Parser) parsePrintArg() (Expr, error) {
	if p.cur().Kind == STRINGLIT {
		t := p.advance()
		return &StringLit{Pos: t.Pos, Value: t.Text}, nil
	}
	return p.parseExpr()
}

func (p *Parser) parseLocalDecl() (Stmt, error) {
	pos := p.advance().Pos // local
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	d := &LocalDecl{Pos: pos, Name: name.Text, Type: typ}
	if d.Size, err = p.parseSubscript(); err != nil {
		return nil, err
	}
	if d.Size == nil && p.accept(ASSIGN) {
		d.Init, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	return d, nil
}

// parseAssign parses "lvalue = expr" without the trailing semicolon.
func (p *Parser) parseAssign() (*AssignStmt, error) {
	lhs, err := p.parseVarRef()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(ASSIGN); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &AssignStmt{Pos: lhs.Pos, LHS: lhs, RHS: rhs}, nil
}

func (p *Parser) parseIf() (Stmt, error) {
	pos := p.advance().Pos // if
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Pos: pos, Cond: cond, Then: then}
	if p.accept(KWELSE) {
		if p.cur().Kind == KWIF {
			// else-if: wrap in a block
			if err := p.enter(); err != nil {
				return nil, err
			}
			inner, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			p.depth--
			st.Else = &BlockStmt{Pos: inner.Position(), Stmts: []Stmt{inner}}
		} else {
			st.Else, err = p.parseBlock()
			if err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

func (p *Parser) parseWhile() (Stmt, error) {
	pos := p.advance().Pos // while
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Pos: pos, Cond: cond, Body: body}, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	pos := p.advance().Pos // for
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	st := &ForStmt{Pos: pos}
	var err error
	if p.cur().Kind != SEMI {
		if p.cur().Kind == KWLOCAL {
			st.Init, err = p.parseLocalDecl()
			if err != nil {
				return nil, err
			}
			// parseLocalDecl consumed the semicolon.
		} else {
			st.Init, err = p.parseAssign()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(SEMI); err != nil {
				return nil, err
			}
		}
	} else {
		p.advance() // ;
	}
	if p.cur().Kind != SEMI {
		st.Cond, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	if p.cur().Kind != RPAREN {
		st.Post, err = p.parseAssign()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	st.Body, err = p.parseBlock()
	if err != nil {
		return nil, err
	}
	return st, nil
}

func (p *Parser) parseCall() (*CallExpr, error) {
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	c := &CallExpr{Pos: name.Pos, Name: name.Text}
	h := 0
	for p.cur().Kind != RPAREN {
		if len(c.Args) > 0 {
			if _, err := p.expect(COMMA); err != nil {
				return nil, err
			}
		}
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Args = append(c.Args, a)
		h = max(h, p.h)
	}
	p.advance() // )
	p.h = h + 1
	return c, nil
}

// Expression grammar:
//
//	expr   := unary ( binop unary )*
//	unary  := (-|!) unary | primary
//	primary:= literal | varref | call | MYPROC | PROCS | "(" expr ")"
//
// with the binary operators' precedence and association in binOps.

func (p *Parser) parseExpr() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	e, err := p.parseBinary(1)
	p.depth--
	return e, err
}

// parseBinary parses operands joined by binary operators of precedence
// level prec or tighter, climbing binOps. A right operand takes only
// tighter operators, so operators of one level associate to the left. top
// is the tightest level the loop may still take: the last operator's level
// if that level chains, the one below if not. So a < b < c stops after
// a < b, and x || a < b < c stops after the ||, where the right operand
// stopped.
func (p *Parser) parseBinary(prec int) (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for top := math.MaxInt; ; {
		op := binOpOf[p.cur().Kind]
		if op < 0 || binOps[op].prec < prec || binOps[op].prec > top {
			return l, nil
		}
		e := binOps[op]
		if top = e.prec; !e.chain {
			top--
		}
		pos, hl := p.advance().Pos, p.h
		r, err := p.parseBinary(e.prec + 1)
		if err != nil {
			return nil, err
		}
		if l, err = p.binary(pos, op, l, hl, r); err != nil {
			return nil, err
		}
	}
}

// binary builds "l op r" for an l that is hl levels high and the r just
// parsed, and leaves the new node's height in p.h.
func (p *Parser) binary(pos Pos, op BinOp, l Expr, hl int, r Expr) (Expr, error) {
	if p.h = 1 + max(hl, p.h); p.depth+p.h > maxNesting {
		return nil, p.tooDeep(pos)
	}
	return &BinExpr{Pos: pos, Op: op, L: l, R: r}, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	var op UnOp
	switch p.cur().Kind {
	case MINUS:
		op = OpNeg
	case NOT:
		op = OpNot
	default:
		return p.parsePrimary()
	}
	pos := p.advance().Pos
	if err := p.enter(); err != nil {
		return nil, err
	}
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	p.depth--
	p.h++
	return &UnExpr{Pos: pos, Op: op, X: x}, nil
}

// parsePrimary leaves p.h at 1 for a leaf, one above the subscript's or the
// highest argument's for a subscripted variable or a call, and where the
// inner expression left it for a parenthesised one, which adds no node.
func (p *Parser) parsePrimary() (Expr, error) {
	p.h = 1
	switch p.cur().Kind {
	case INTLIT:
		t := p.advance()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf(t.Pos, "invalid integer literal %q", t.Text)
		}
		return &IntLit{Pos: t.Pos, Value: v}, nil
	case FLOATLIT:
		t := p.advance()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errorf(t.Pos, "invalid float literal %q", t.Text)
		}
		return &FloatLit{Pos: t.Pos, Value: v}, nil
	case KWMYPROC:
		t := p.advance()
		return &MyProcExpr{Pos: t.Pos}, nil
	case KWPROCS:
		t := p.advance()
		return &ProcsExpr{Pos: t.Pos}, nil
	case LPAREN:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return e, nil
	case IDENT:
		if p.peek().Kind == LPAREN {
			return p.parseCall()
		}
		ref, err := p.parseVarRef()
		if err != nil {
			return nil, err
		}
		if ref.Index != nil {
			p.h++
		}
		return ref, nil
	default:
		return nil, p.errorf(p.cur().Pos, "expected expression, found %s", p.cur())
	}
}
