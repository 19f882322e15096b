package source

// This file defines the MiniSplit abstract syntax tree.
//
// A program is a list of top-level declarations: shared scalars, distributed
// arrays, events, locks, and functions. Every processor executes main() in
// SPMD style. Shared scalars live on a single owner processor (processor 0
// unless an "on" clause says otherwise); distributed arrays are spread over
// the machine with a blocked or cyclic layout.

// Type is the type of an expression or variable.
type Type int

// MiniSplit types.
const (
	TypeInvalid Type = iota
	TypeInt
	TypeFloat
	TypeBool // comparison/logical results only; not declarable
	TypeVoid // function with no result
)

// String returns the source-level spelling of the type.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeBool:
		return "bool"
	case TypeVoid:
		return "void"
	default:
		return "invalid"
	}
}

// Layout is the distribution of a shared array across processors.
type Layout int

// Array layouts. In a blocked layout element i lives on processor
// i / ceil(n/PROCS); in a cyclic layout it lives on processor i % PROCS.
const (
	LayoutBlocked Layout = iota
	LayoutCyclic
)

// String returns the source-level spelling of the layout.
func (l Layout) String() string {
	if l == LayoutCyclic {
		return "cyclic"
	}
	return "blocked"
}

// Program is a parsed MiniSplit compilation unit.
type Program struct {
	Decls []Decl
}

// Funcs returns the function declarations in order.
func (p *Program) Funcs() []*FuncDecl {
	var fs []*FuncDecl
	for _, d := range p.Decls {
		if f, ok := d.(*FuncDecl); ok {
			fs = append(fs, f)
		}
	}
	return fs
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *FuncDecl {
	for _, d := range p.Decls {
		if f, ok := d.(*FuncDecl); ok && f.Name == name {
			return f
		}
	}
	return nil
}

// Decl is a top-level declaration.
type Decl interface {
	declNode()
	Position() Pos
}

// SharedDecl declares a shared scalar or a distributed shared array.
//
//	shared int X;                 // scalar owned by processor 0
//	shared float Y on 3;          // scalar owned by processor 3
//	shared int A[100] cyclic;     // distributed array
type SharedDecl struct {
	Pos    Pos
	Name   string
	Type   Type
	Size   Expr   // nil for scalars; constant expression for arrays
	Layout Layout // arrays only
	Owner  Expr   // scalars only; nil means processor 0
	Init   Expr   // optional constant initializer (scalars only)
}

// EventDecl declares a post/wait event or an array of events.
//
//	event done;
//	event flags[16];
type EventDecl struct {
	Pos  Pos
	Name string
	Size Expr // nil for a single event
}

// LockDecl declares a named lock or an array of locks.
//
//	lock m;
//	lock rows[8];
type LockDecl struct {
	Pos  Pos
	Name string
	Size Expr // nil for a single lock
}

// FuncDecl declares a function. Parameters and results are local values.
type FuncDecl struct {
	Pos    Pos
	Name   string
	Params []Param
	Result Type // TypeVoid if none
	Body   *BlockStmt
}

// Param is a single function parameter.
type Param struct {
	Pos  Pos
	Name string
	Type Type
}

func (*SharedDecl) declNode() {}
func (*EventDecl) declNode()  {}
func (*LockDecl) declNode()   {}
func (*FuncDecl) declNode()   {}

// Position returns the declaration's source position.
func (d *SharedDecl) Position() Pos { return d.Pos }

// Position returns the declaration's source position.
func (d *EventDecl) Position() Pos { return d.Pos }

// Position returns the declaration's source position.
func (d *LockDecl) Position() Pos { return d.Pos }

// Position returns the declaration's source position.
func (d *FuncDecl) Position() Pos { return d.Pos }

// Stmt is a statement node.
type Stmt interface {
	stmtNode()
	Position() Pos
}

// BlockStmt is a brace-delimited statement list.
type BlockStmt struct {
	Pos   Pos
	Stmts []Stmt
}

// LocalDecl declares a function-local variable or local array.
//
//	local int i = 0;
//	local float buf[64];
type LocalDecl struct {
	Pos  Pos
	Name string
	Type Type
	Size Expr // nil for scalars
	Init Expr // optional; scalars only
}

// AssignStmt assigns to a local or shared lvalue.
type AssignStmt struct {
	Pos Pos
	LHS *VarRef
	RHS Expr
}

// IfStmt is a conditional with an optional else arm.
type IfStmt struct {
	Pos  Pos
	Cond Expr
	Then *BlockStmt
	Else *BlockStmt // may be nil
}

// WhileStmt is a pre-tested loop.
type WhileStmt struct {
	Pos  Pos
	Cond Expr
	Body *BlockStmt
}

// ForStmt is a counted loop: for (init; cond; post) body.
// Init and Post are assignments or local declarations (Init only).
type ForStmt struct {
	Pos  Pos
	Init Stmt // *AssignStmt or *LocalDecl; may be nil
	Cond Expr // may be nil (treated as true)
	Post Stmt // *AssignStmt; may be nil
	Body *BlockStmt
}

// BarrierStmt is a global barrier across all processors.
type BarrierStmt struct {
	Pos Pos
}

// PostStmt posts an event: post(e) or post(e[i]).
type PostStmt struct {
	Pos   Pos
	Event *VarRef
}

// WaitStmt blocks until the named event has been posted.
type WaitStmt struct {
	Pos   Pos
	Event *VarRef
}

// LockStmt acquires a named lock.
type LockStmt struct {
	Pos  Pos
	Lock *VarRef
}

// UnlockStmt releases a named lock.
type UnlockStmt struct {
	Pos  Pos
	Lock *VarRef
}

// CallStmt invokes a void function for effect.
type CallStmt struct {
	Pos  Pos
	Call *CallExpr
}

// ReturnStmt returns from the enclosing function.
type ReturnStmt struct {
	Pos   Pos
	Value Expr // nil for void functions
}

// PrintStmt emits values for debugging/examples: print("msg", x, y);
type PrintStmt struct {
	Pos  Pos
	Args []Expr
}

func (*BlockStmt) stmtNode()   {}
func (*LocalDecl) stmtNode()   {}
func (*AssignStmt) stmtNode()  {}
func (*IfStmt) stmtNode()      {}
func (*WhileStmt) stmtNode()   {}
func (*ForStmt) stmtNode()     {}
func (*BarrierStmt) stmtNode() {}
func (*PostStmt) stmtNode()    {}
func (*WaitStmt) stmtNode()    {}
func (*LockStmt) stmtNode()    {}
func (*UnlockStmt) stmtNode()  {}
func (*CallStmt) stmtNode()    {}
func (*ReturnStmt) stmtNode()  {}
func (*PrintStmt) stmtNode()   {}

// Position returns the statement's source position.
func (s *BlockStmt) Position() Pos { return s.Pos }

// Position returns the statement's source position.
func (s *LocalDecl) Position() Pos { return s.Pos }

// Position returns the statement's source position.
func (s *AssignStmt) Position() Pos { return s.Pos }

// Position returns the statement's source position.
func (s *IfStmt) Position() Pos { return s.Pos }

// Position returns the statement's source position.
func (s *WhileStmt) Position() Pos { return s.Pos }

// Position returns the statement's source position.
func (s *ForStmt) Position() Pos { return s.Pos }

// Position returns the statement's source position.
func (s *BarrierStmt) Position() Pos { return s.Pos }

// Position returns the statement's source position.
func (s *PostStmt) Position() Pos { return s.Pos }

// Position returns the statement's source position.
func (s *WaitStmt) Position() Pos { return s.Pos }

// Position returns the statement's source position.
func (s *LockStmt) Position() Pos { return s.Pos }

// Position returns the statement's source position.
func (s *UnlockStmt) Position() Pos { return s.Pos }

// Position returns the statement's source position.
func (s *CallStmt) Position() Pos { return s.Pos }

// Position returns the statement's source position.
func (s *ReturnStmt) Position() Pos { return s.Pos }

// Position returns the statement's source position.
func (s *PrintStmt) Position() Pos { return s.Pos }

// Expr is an expression node.
type Expr interface {
	exprNode()
	Position() Pos
}

// IntLit is an integer literal.
type IntLit struct {
	Pos   Pos
	Value int64
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	Pos   Pos
	Value float64
}

// StringLit is a string literal (print arguments only).
type StringLit struct {
	Pos   Pos
	Value string
}

// VarRef refers to a scalar variable or an indexed array element.
// Name resolution (local vs shared vs event vs lock) happens during
// semantic analysis; the parser records only the syntax.
type VarRef struct {
	Pos   Pos
	Name  string
	Index Expr // nil for scalars
}

// MyProcExpr is the MYPROC builtin: the executing processor's number.
type MyProcExpr struct {
	Pos Pos
}

// ProcsExpr is the PROCS builtin: the number of processors.
type ProcsExpr struct {
	Pos Pos
}

// BinOp is a binary operator.
type BinOp int

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNeq
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

// binOps is the binary-operator table, indexed by BinOp: each operator's
// token, its precedence level (a higher level binds tighter), and whether
// operators of its level chain. Those that chain associate to the left,
// a - b - c being (a - b) - c; comparisons do not chain, and a < b < c is a
// syntax error. The parser's precedence climbing (parseBinary) reads it
// through binOpOf, and String through the token's spelling.
var binOps = [...]struct {
	tok   Kind
	prec  int
	chain bool
}{
	OpOr:  {OROR, 1, true},
	OpAnd: {ANDAND, 2, true},
	OpEq:  {EQ, 3, false},
	OpNeq: {NEQ, 3, false},
	OpLt:  {LT, 3, false},
	OpLe:  {LE, 3, false},
	OpGt:  {GT, 3, false},
	OpGe:  {GE, 3, false},
	OpAdd: {PLUS, 4, true},
	OpSub: {MINUS, 4, true},
	OpMul: {STAR, 5, true},
	OpDiv: {SLASH, 5, true},
	OpMod: {PERCENT, 5, true},
}

// binOpOf maps a token kind to the binary operator it spells, or to -1.
var binOpOf = func() (of [numKinds]BinOp) {
	for k := range of {
		of[k] = -1
	}
	for op, e := range binOps {
		of[e.tok] = BinOp(op)
	}
	return of
}()

// String returns the source-level spelling of the operator.
func (op BinOp) String() string {
	if 0 <= op && int(op) < len(binOps) {
		return spellings[binOps[op].tok]
	}
	return "?"
}

// BinExpr is a binary operation.
type BinExpr struct {
	Pos  Pos
	Op   BinOp
	L, R Expr
}

// UnOp is a unary operator.
type UnOp int

// Unary operators.
const (
	OpNeg UnOp = iota // -x
	OpNot             // !x
)

// String returns the source-level spelling of the operator.
func (op UnOp) String() string {
	if op == OpNot {
		return "!"
	}
	return "-"
}

// UnExpr is a unary operation.
type UnExpr struct {
	Pos Pos
	Op  UnOp
	X   Expr
}

// CallExpr invokes a function. In expressions the callee must return a
// value; as a CallStmt it may be void.
type CallExpr struct {
	Pos  Pos
	Name string
	Args []Expr
}

func (*IntLit) exprNode()     {}
func (*FloatLit) exprNode()   {}
func (*StringLit) exprNode()  {}
func (*VarRef) exprNode()     {}
func (*MyProcExpr) exprNode() {}
func (*ProcsExpr) exprNode()  {}
func (*BinExpr) exprNode()    {}
func (*UnExpr) exprNode()     {}
func (*CallExpr) exprNode()   {}

// Position returns the expression's source position.
func (e *IntLit) Position() Pos { return e.Pos }

// Position returns the expression's source position.
func (e *FloatLit) Position() Pos { return e.Pos }

// Position returns the expression's source position.
func (e *StringLit) Position() Pos { return e.Pos }

// Position returns the expression's source position.
func (e *VarRef) Position() Pos { return e.Pos }

// Position returns the expression's source position.
func (e *MyProcExpr) Position() Pos { return e.Pos }

// Position returns the expression's source position.
func (e *ProcsExpr) Position() Pos { return e.Pos }

// Position returns the expression's source position.
func (e *BinExpr) Position() Pos { return e.Pos }

// Position returns the expression's source position.
func (e *UnExpr) Position() Pos { return e.Pos }

// Position returns the expression's source position.
func (e *CallExpr) Position() Pos { return e.Pos }
