package source

import (
	"fmt"
	"strings"
)

// Print renders the program back to MiniSplit source text. The output
// re-parses to an equivalent AST; it is used by tests (round-tripping) and
// by the compiler driver's dump after parse (-dump-after parse).
func Print(p *Program) string {
	var pr printer
	for i, d := range p.Decls {
		if i > 0 {
			pr.nl()
		}
		pr.decl(d)
	}
	return pr.sb.String()
}

// PrintExpr renders a single expression.
func PrintExpr(e Expr) string {
	var pr printer
	pr.expr(e)
	return pr.sb.String()
}

// PrintStmtText renders a single statement at indent 0.
func PrintStmtText(s Stmt) string {
	var pr printer
	pr.stmt(s)
	return strings.TrimRight(pr.sb.String(), "\n")
}

type printer struct {
	sb     strings.Builder
	indent int
}

func (pr *printer) line(format string, args ...any) {
	pr.sb.WriteString(strings.Repeat("    ", pr.indent))
	fmt.Fprintf(&pr.sb, format, args...)
	pr.sb.WriteByte('\n')
}

func (pr *printer) nl() { pr.sb.WriteByte('\n') }

func (pr *printer) decl(d Decl) {
	switch d := d.(type) {
	case *SharedDecl:
		if d.Size != nil {
			pr.line("shared %s %s[%s] %s;", d.Type, d.Name, PrintExpr(d.Size), d.Layout)
		} else {
			s := fmt.Sprintf("shared %s %s", d.Type, d.Name)
			if d.Owner != nil {
				s += " on " + PrintExpr(d.Owner)
			}
			if d.Init != nil {
				s += " = " + PrintExpr(d.Init)
			}
			pr.line("%s;", s)
		}
	case *EventDecl:
		pr.line("event %s%s;", d.Name, subscript(d.Size))
	case *LockDecl:
		pr.line("lock %s%s;", d.Name, subscript(d.Size))
	case *FuncDecl:
		var params []string
		for _, p := range d.Params {
			params = append(params, fmt.Sprintf("%s %s", p.Type, p.Name))
		}
		sig := fmt.Sprintf("func %s(%s)", d.Name, strings.Join(params, ", "))
		if d.Result != TypeVoid {
			sig += " " + d.Result.String()
		}
		pr.line("%s {", sig)
		pr.indent++
		for _, s := range d.Body.Stmts {
			pr.stmt(s)
		}
		pr.indent--
		pr.line("}")
	}
}

// stringEscaper writes a string literal's value back with the four escapes
// the lexer reads, and every other rune as itself: Go's %q would write
// escapes such as \x7f or \r, which the lexer refuses.
var stringEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`, "\t", `\t`)

// subscript renders an optional "[expr]": nothing for a nil expression.
func subscript(e Expr) string {
	if e == nil {
		return ""
	}
	return "[" + PrintExpr(e) + "]"
}

func (pr *printer) stmt(s Stmt) {
	switch s := s.(type) {
	case *BlockStmt:
		pr.line("{")
		pr.indent++
		for _, inner := range s.Stmts {
			pr.stmt(inner)
		}
		pr.indent--
		pr.line("}")
	case *LocalDecl:
		if s.Size == nil && s.Init != nil {
			pr.line("local %s %s = %s;", s.Type, s.Name, PrintExpr(s.Init))
		} else {
			pr.line("local %s %s%s;", s.Type, s.Name, subscript(s.Size))
		}
	case *AssignStmt:
		pr.line("%s = %s;", PrintExpr(s.LHS), PrintExpr(s.RHS))
	case *IfStmt:
		pr.line("if (%s) {", PrintExpr(s.Cond))
		pr.indent++
		for _, inner := range s.Then.Stmts {
			pr.stmt(inner)
		}
		pr.indent--
		if s.Else != nil {
			pr.line("} else {")
			pr.indent++
			for _, inner := range s.Else.Stmts {
				pr.stmt(inner)
			}
			pr.indent--
		}
		pr.line("}")
	case *WhileStmt:
		pr.line("while (%s) {", PrintExpr(s.Cond))
		pr.indent++
		for _, inner := range s.Body.Stmts {
			pr.stmt(inner)
		}
		pr.indent--
		pr.line("}")
	case *ForStmt:
		init, cond, post := "", "", ""
		if s.Init != nil {
			init = strings.TrimSuffix(PrintStmtText(s.Init), ";")
		}
		if s.Cond != nil {
			cond = PrintExpr(s.Cond)
		}
		if s.Post != nil {
			post = strings.TrimSuffix(PrintStmtText(s.Post), ";")
		}
		pr.line("for (%s; %s; %s) {", init, cond, post)
		pr.indent++
		for _, inner := range s.Body.Stmts {
			pr.stmt(inner)
		}
		pr.indent--
		pr.line("}")
	case *BarrierStmt:
		pr.line("barrier;")
	case *PostStmt:
		pr.line("post(%s);", PrintExpr(s.Event))
	case *WaitStmt:
		pr.line("wait(%s);", PrintExpr(s.Event))
	case *LockStmt:
		pr.line("lock(%s);", PrintExpr(s.Lock))
	case *UnlockStmt:
		pr.line("unlock(%s);", PrintExpr(s.Lock))
	case *CallStmt:
		pr.line("%s;", PrintExpr(s.Call))
	case *ReturnStmt:
		if s.Value != nil {
			pr.line("return %s;", PrintExpr(s.Value))
		} else {
			pr.line("return;")
		}
	case *PrintStmt:
		var args []string
		for _, a := range s.Args {
			args = append(args, PrintExpr(a))
		}
		pr.line("print(%s);", strings.Join(args, ", "))
	}
}

func (pr *printer) expr(e Expr) {
	switch e := e.(type) {
	case *IntLit:
		fmt.Fprintf(&pr.sb, "%d", e.Value)
	case *FloatLit:
		s := fmt.Sprintf("%g", e.Value)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		pr.sb.WriteString(s)
	case *StringLit:
		pr.sb.WriteByte('"')
		stringEscaper.WriteString(&pr.sb, e.Value)
		pr.sb.WriteByte('"')
	case *VarRef:
		pr.sb.WriteString(e.Name)
		if e.Index != nil {
			pr.sb.WriteByte('[')
			pr.expr(e.Index)
			pr.sb.WriteByte(']')
		}
	case *MyProcExpr:
		pr.sb.WriteString("MYPROC")
	case *ProcsExpr:
		pr.sb.WriteString("PROCS")
	case *BinExpr:
		pr.sb.WriteByte('(')
		pr.expr(e.L)
		fmt.Fprintf(&pr.sb, " %s ", e.Op)
		pr.expr(e.R)
		pr.sb.WriteByte(')')
	case *UnExpr:
		pr.sb.WriteString(e.Op.String())
		pr.sb.WriteByte('(')
		pr.expr(e.X)
		pr.sb.WriteByte(')')
	case *CallExpr:
		pr.sb.WriteString(e.Name)
		pr.sb.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				pr.sb.WriteString(", ")
			}
			pr.expr(a)
		}
		pr.sb.WriteByte(')')
	}
}
