package ir

import (
	"fmt"
	"strconv"
)

// The printer appends to one byte slice all the way down: ExprString's text
// is the conflict key of every indexed access, so it is rendered once per
// compile, not only for -dump-after build-ir, the goldens and TestPrintIRExact.

// String renders the function's CFG in a readable text form for debugging,
// golden tests, and the compiler driver's dump after build-ir.
func (f *Fn) String() string {
	b := append([]byte("func "), f.Name...)
	b = append(b, " (procs="...)
	b = strconv.AppendInt(b, int64(f.Procs), 10)
	b = append(b, ", "...)
	b = strconv.AppendInt(b, int64(len(f.Accesses)), 10)
	b = append(b, " accesses)\n"...)
	for _, blk := range f.Blocks {
		b = appendBlockID(b, blk)
		b = append(b, ":\n"...)
		for _, s := range blk.Stmts {
			b = append(b, "    "...)
			b = f.AppendStmt(b, s)
			b = append(b, '\n')
		}
		switch t := blk.Term.(type) {
		case *Jump:
			b = append(b, "    jump "...)
			b = appendBlockID(b, t.To)
			b = append(b, '\n')
		case *Branch:
			b = append(b, "    branch "...)
			b = f.AppendExpr(b, t.Cond)
			b = append(b, " ? "...)
			b = appendBlockID(b, t.Then)
			b = append(b, " : "...)
			b = appendBlockID(b, t.Else)
			b = append(b, '\n')
		case *Ret:
			b = append(b, "    ret\n"...)
		case nil:
			b = append(b, "    <no terminator>\n"...)
		}
	}
	return string(b)
}

func appendBlockID(b []byte, blk *Block) []byte {
	return strconv.AppendInt(append(b, 'b'), int64(blk.ID), 10)
}

// appendAccID appends the "    ; a3" trailer of an access statement.
func appendAccID(b []byte, a *Access) []byte {
	return strconv.AppendInt(append(b, "    ; a"...), int64(a.ID), 10)
}

// AppendStmt appends the text of one statement to b, as StmtString renders
// it.
func (f *Fn) AppendStmt(b []byte, s Stmt) []byte {
	switch s := s.(type) {
	case *Assign:
		b = f.AppendLocal(b, s.Dst)
		b = append(b, " = "...)
		return f.AppendExpr(b, s.Src)
	case *SetElem:
		b = f.AppendLocal(b, s.Arr)
		b = append(b, '[')
		b = f.AppendExpr(b, s.Index)
		b = append(b, "] = "...)
		return f.AppendExpr(b, s.Src)
	case *Load:
		b = f.AppendLocal(b, s.Dst)
		b = append(b, " = load "...)
		b = f.AppendRef(b, s.Acc)
		return appendAccID(b, s.Acc)
	case *Store:
		b = append(b, "store "...)
		b = f.AppendRef(b, s.Acc)
		b = append(b, " = "...)
		b = f.AppendExpr(b, s.Src)
		return appendAccID(b, s.Acc)
	case *SyncOp:
		b = append(b, s.Acc.Kind.String()...)
		if s.Acc.Kind != AccBarrier {
			b = append(b, ' ')
			b = f.AppendRef(b, s.Acc)
		}
		return appendAccID(b, s.Acc)
	case *Print:
		b = append(b, "print "...)
		for i, a := range s.Args {
			if i > 0 {
				b = append(b, ", "...)
			}
			if a.IsStr {
				b = strconv.AppendQuote(b, a.Str)
			} else {
				b = f.AppendExpr(b, a.E)
			}
		}
		return b
	default:
		return fmt.Appendf(b, "?stmt %T", s)
	}
}

// AppendRef appends a shared-access reference to b: the symbol, and its
// index when it has one.
func (f *Fn) AppendRef(b []byte, a *Access) []byte {
	if a.Sym == nil {
		return b
	}
	b = append(b, a.Sym.Name...)
	if a.Index != nil {
		b = append(b, '[')
		b = f.AppendExpr(b, a.Index)
		b = append(b, ']')
	}
	return b
}

// AppendLocal appends a local's name to b, or lN for an id past the
// function's table.
func (f *Fn) AppendLocal(b []byte, id LocalID) []byte {
	if int(id) < len(f.Locals) {
		return append(b, f.Locals[id].Name...)
	}
	return strconv.AppendInt(append(b, 'l'), int64(id), 10)
}

// ExprString renders one expression.
func (f *Fn) ExprString(e Expr) string { return string(f.AppendExpr(nil, e)) }

// AppendExpr appends the text of one expression to b, as ExprString
// renders it.
func (f *Fn) AppendExpr(b []byte, e Expr) []byte {
	switch e := e.(type) {
	case *Const:
		return e.Val.appendTo(b)
	case *LocalRef:
		return f.AppendLocal(b, e.ID)
	case *ElemRef:
		b = f.AppendLocal(b, e.Arr)
		b = append(b, '[')
		b = f.AppendExpr(b, e.Index)
		return append(b, ']')
	case *MyProc:
		return append(b, "MYPROC"...)
	case *Procs:
		return append(b, "PROCS"...)
	case *Bin:
		b = append(b, '(')
		b = f.AppendExpr(b, e.L)
		b = append(b, ' ')
		b = append(b, e.Op.String()...)
		b = append(b, ' ')
		b = f.AppendExpr(b, e.R)
		return append(b, ')')
	case *Un:
		b = append(b, e.Op.String()...)
		b = append(b, '(')
		b = f.AppendExpr(b, e.X)
		return append(b, ')')
	case *BuiltinCall:
		b = append(b, e.Name...)
		b = append(b, '(')
		for i, a := range e.Args {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = f.AppendExpr(b, a)
		}
		return append(b, ')')
	case nil:
		return append(b, "<nil>"...)
	default:
		return fmt.Appendf(b, "?expr %T", e)
	}
}
