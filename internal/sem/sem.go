// Package sem implements name resolution and type checking for MiniSplit.
//
// The checker resolves every variable reference to a symbol (shared scalar,
// shared array, event, lock, local, or parameter), assigns a type to every
// expression, folds the constant expressions that declarations require
// (array sizes, scalar owners, initializers), and verifies the call graph is
// acyclic so that the IR builder may inline calls.
package sem

import (
	"fmt"

	"repro/internal/source"
)

// SymKind classifies a resolved symbol.
type SymKind int

// Symbol kinds.
const (
	SymSharedScalar SymKind = iota
	SymSharedArray
	SymEvent
	SymLock
	SymLocal // function-local scalar or array (including parameters)
)

// String names the kind for diagnostics.
func (k SymKind) String() string {
	switch k {
	case SymSharedScalar:
		return "shared scalar"
	case SymSharedArray:
		return "shared array"
	case SymEvent:
		return "event"
	case SymLock:
		return "lock"
	case SymLocal:
		return "local"
	default:
		return "unknown"
	}
}

// Symbol is a resolved program entity.
type Symbol struct {
	// ID is a dense index interning the symbol within its category
	// (position in Info.Shared, Info.Events, or Info.Locks). The
	// simulator's hot path uses it to replace map lookups with slice
	// indexing. Locals always have ID 0.
	ID     int
	Name   string
	Kind   SymKind
	Type   source.Type   // element type for arrays; TypeInt for events/locks
	Size   int64         // number of elements; 1 for scalars/plain events/locks
	Layout source.Layout // shared arrays only
	Owner  int64         // shared scalars only
	Init   ConstVal      // shared scalars only
	IsArr  bool          // declared with a size
	Decl   source.Pos
}

// ConstVal is a folded compile-time constant.
type ConstVal struct {
	Type source.Type
	I    int64
	F    float64
}

// Info is the result of checking a program: symbol resolution and types.
type Info struct {
	Prog    *source.Program
	Shared  []*Symbol // shared scalars and arrays, in declaration order
	Events  []*Symbol
	Locks   []*Symbol
	Funcs   map[string]*source.FuncDecl
	Refs    map[*source.VarRef]*Symbol            // every VarRef's target
	Types   map[source.Expr]source.Type           // every expression's type
	Calls   map[*source.CallExpr]*source.FuncDecl // user calls (nil entry for builtins)
	Builtin map[*source.CallExpr]string           // builtin calls by name
}

// Lookup finds a shared/event/lock symbol by name, or nil.
func (in *Info) Lookup(name string) *Symbol {
	for _, s := range in.Shared {
		if s.Name == name {
			return s
		}
	}
	for _, s := range in.Events {
		if s.Name == name {
			return s
		}
	}
	for _, s := range in.Locks {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Error is a semantic error with a source position.
type Error struct {
	Pos source.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// builtins maps builtin function names to (param types, result type).
var builtins = map[string]struct {
	params []source.Type
	result source.Type
}{
	"itof":  {[]source.Type{source.TypeInt}, source.TypeFloat},
	"ftoi":  {[]source.Type{source.TypeFloat}, source.TypeInt},
	"fabs":  {[]source.Type{source.TypeFloat}, source.TypeFloat},
	"fsqrt": {[]source.Type{source.TypeFloat}, source.TypeFloat},
	"imin":  {[]source.Type{source.TypeInt, source.TypeInt}, source.TypeInt},
	"imax":  {[]source.Type{source.TypeInt, source.TypeInt}, source.TypeInt},
}

// IsBuiltin reports whether name names a MiniSplit builtin function.
func IsBuiltin(name string) bool {
	_, ok := builtins[name]
	return ok
}

type checker struct {
	info   *Info
	scopes []map[string]*Symbol // innermost last
	fn     *source.FuncDecl     // function being checked
	err    error
}

// Check resolves and type-checks prog. It returns the first error found.
func Check(prog *source.Program) (*Info, error) {
	c := &checker{
		info: &Info{
			Prog:    prog,
			Funcs:   make(map[string]*source.FuncDecl),
			Refs:    make(map[*source.VarRef]*Symbol),
			Types:   make(map[source.Expr]source.Type),
			Calls:   make(map[*source.CallExpr]*source.FuncDecl),
			Builtin: make(map[*source.CallExpr]string),
		},
	}
	c.collectGlobals(prog)
	if c.err != nil {
		return nil, c.err
	}
	main := c.info.Funcs["main"]
	if main == nil {
		return nil, &Error{Msg: "program has no main function"}
	}
	if len(main.Params) != 0 || main.Result != source.TypeVoid {
		return nil, &Error{Pos: main.Pos, Msg: "main must take no parameters and return no value"}
	}
	for _, f := range prog.Funcs() {
		c.checkFunc(f)
		if c.err != nil {
			return nil, c.err
		}
	}
	if err := c.checkNoRecursion(prog); err != nil {
		return nil, err
	}
	c.info.internSymbols()
	return c.info, nil
}

// internSymbols assigns each shared/event/lock symbol its dense per-category
// ID (its position in the declaration-ordered slice).
func (in *Info) internSymbols() {
	for i, s := range in.Shared {
		s.ID = i
	}
	for i, s := range in.Events {
		s.ID = i
	}
	for i, s := range in.Locks {
		s.ID = i
	}
}

func (c *checker) errorf(pos source.Pos, format string, args ...any) {
	if c.err == nil {
		c.err = &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
	}
}

func (c *checker) collectGlobals(prog *source.Program) {
	seen := make(map[string]source.Pos)
	declare := func(name string, pos source.Pos) bool {
		if prev, dup := seen[name]; dup {
			c.errorf(pos, "%s redeclared (previous declaration at %s)", name, prev)
			return false
		}
		seen[name] = pos
		return true
	}
	// syncObject declares an event or a lock (kind says which), or an array
	// of them, and appends its symbol to syms.
	syncObject := func(syms *[]*Symbol, kind SymKind, pos source.Pos, name string, size source.Expr) bool {
		if !declare(name, pos) {
			return false
		}
		sym := &Symbol{Name: name, Kind: kind, Type: source.TypeInt, Size: 1, Decl: pos}
		if size != nil {
			n, ok := c.constInt(size)
			if !ok {
				return false
			}
			if n <= 0 {
				c.errorf(pos, "%s array %s has non-positive size %d", kind, name, n)
				return false
			}
			sym.Size, sym.IsArr = n, true
		}
		*syms = append(*syms, sym)
		return true
	}
	for _, d := range prog.Decls {
		switch d := d.(type) {
		case *source.SharedDecl:
			if !declare(d.Name, d.Pos) {
				return
			}
			sym := &Symbol{Name: d.Name, Type: d.Type, Size: 1, Decl: d.Pos}
			if d.Size != nil {
				sym.Kind = SymSharedArray
				sym.IsArr = true
				sym.Layout = d.Layout
				n, ok := c.constInt(d.Size)
				if !ok {
					return
				}
				if n <= 0 {
					c.errorf(d.Pos, "array %s has non-positive size %d", d.Name, n)
					return
				}
				sym.Size = n
			} else {
				sym.Kind = SymSharedScalar
				if d.Owner != nil {
					o, ok := c.constInt(d.Owner)
					if !ok {
						return
					}
					if o < 0 {
						c.errorf(d.Pos, "scalar %s has negative owner %d", d.Name, o)
						return
					}
					sym.Owner = o
				}
				if d.Init != nil {
					v, ok := c.constVal(d.Init)
					if !ok {
						return
					}
					if v.Type == source.TypeInt && d.Type == source.TypeFloat {
						v = ConstVal{Type: source.TypeFloat, F: float64(v.I)}
					}
					if v.Type != d.Type {
						c.errorf(d.Pos, "initializer type %s does not match %s %s", v.Type, d.Type, d.Name)
						return
					}
					sym.Init = v
				} else {
					sym.Init = ConstVal{Type: d.Type}
				}
			}
			c.info.Shared = append(c.info.Shared, sym)
		case *source.EventDecl:
			if !syncObject(&c.info.Events, SymEvent, d.Pos, d.Name, d.Size) {
				return
			}
		case *source.LockDecl:
			if !syncObject(&c.info.Locks, SymLock, d.Pos, d.Name, d.Size) {
				return
			}
		case *source.FuncDecl:
			if !declare(d.Name, d.Pos) {
				return
			}
			if IsBuiltin(d.Name) {
				c.errorf(d.Pos, "%s is a builtin function and cannot be redefined", d.Name)
				return
			}
			c.info.Funcs[d.Name] = d
		}
	}
}

// constInt folds a constant integer expression (literals and arithmetic).
func (c *checker) constInt(e source.Expr) (int64, bool) {
	v, ok := c.constVal(e)
	if !ok {
		return 0, false
	}
	if v.Type != source.TypeInt {
		c.errorf(e.Position(), "expected constant integer expression")
		return 0, false
	}
	return v.I, true
}

func (c *checker) constVal(e source.Expr) (ConstVal, bool) {
	switch e := e.(type) {
	case *source.IntLit:
		return ConstVal{Type: source.TypeInt, I: e.Value}, true
	case *source.FloatLit:
		return ConstVal{Type: source.TypeFloat, F: e.Value}, true
	case *source.UnExpr:
		if e.Op != source.OpNeg {
			break
		}
		v, ok := c.constVal(e.X)
		if !ok {
			return ConstVal{}, false
		}
		v.I, v.F = -v.I, -v.F
		return v, true
	case *source.BinExpr:
		l, ok := c.constVal(e.L)
		if !ok {
			return ConstVal{}, false
		}
		r, ok := c.constVal(e.R)
		if !ok {
			return ConstVal{}, false
		}
		if l.Type != source.TypeInt || r.Type != source.TypeInt {
			break
		}
		switch e.Op {
		case source.OpAdd:
			return ConstVal{Type: source.TypeInt, I: l.I + r.I}, true
		case source.OpSub:
			return ConstVal{Type: source.TypeInt, I: l.I - r.I}, true
		case source.OpMul:
			return ConstVal{Type: source.TypeInt, I: l.I * r.I}, true
		case source.OpDiv:
			if r.I == 0 {
				c.errorf(e.Pos, "division by zero in constant expression")
				return ConstVal{}, false
			}
			return ConstVal{Type: source.TypeInt, I: l.I / r.I}, true
		case source.OpMod:
			if r.I == 0 {
				c.errorf(e.Pos, "division by zero in constant expression")
				return ConstVal{}, false
			}
			return ConstVal{Type: source.TypeInt, I: l.I % r.I}, true
		}
	}
	c.errorf(e.Position(), "expression is not a compile-time constant")
	return ConstVal{}, false
}

func (c *checker) pushScope() {
	c.scopes = append(c.scopes, make(map[string]*Symbol))
}

func (c *checker) popScope() {
	c.scopes = c.scopes[:len(c.scopes)-1]
}

func (c *checker) declareLocal(name string, pos source.Pos, typ source.Type, size int64, isArr bool) *Symbol {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[name]; dup {
		c.errorf(pos, "%s redeclared in this block", name)
		return nil
	}
	sym := &Symbol{Name: name, Kind: SymLocal, Type: typ, Size: size, IsArr: isArr, Decl: pos}
	top[name] = sym
	return sym
}

// resolve finds name in local scopes then globals.
func (c *checker) resolve(name string) *Symbol {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s
		}
	}
	return c.info.Lookup(name)
}

func (c *checker) checkFunc(f *source.FuncDecl) {
	c.fn = f
	c.pushScope()
	for _, p := range f.Params {
		c.declareLocal(p.Name, p.Pos, p.Type, 1, false)
	}
	c.checkBlock(f.Body)
	c.popScope()
	c.fn = nil
}

func (c *checker) checkBlock(b *source.BlockStmt) {
	c.pushScope()
	for _, s := range b.Stmts {
		c.checkStmt(s)
		if c.err != nil {
			break
		}
	}
	c.popScope()
}

func (c *checker) checkStmt(s source.Stmt) {
	switch s := s.(type) {
	case *source.BlockStmt:
		c.checkBlock(s)
	case *source.LocalDecl:
		c.checkLocalDecl(s)
	case *source.AssignStmt:
		c.checkAssign(s)
	case *source.IfStmt:
		c.checkCond(s.Cond)
		c.checkBlock(s.Then)
		if s.Else != nil {
			c.checkBlock(s.Else)
		}
	case *source.WhileStmt:
		c.checkCond(s.Cond)
		c.checkBlock(s.Body)
	case *source.ForStmt:
		c.pushScope()
		if s.Init != nil {
			c.checkStmt(s.Init)
		}
		if s.Cond != nil {
			c.checkCond(s.Cond)
		}
		if s.Post != nil {
			c.checkStmt(s.Post)
		}
		c.checkBlock(s.Body)
		c.popScope()
	case *source.BarrierStmt:
		// nothing to check
	case *source.PostStmt:
		c.checkSyncRef(s.Event, SymEvent, "post")
	case *source.WaitStmt:
		c.checkSyncRef(s.Event, SymEvent, "wait")
	case *source.LockStmt:
		c.checkSyncRef(s.Lock, SymLock, "lock")
	case *source.UnlockStmt:
		c.checkSyncRef(s.Lock, SymLock, "unlock")
	case *source.CallStmt:
		c.checkCall(s.Call, true)
	case *source.ReturnStmt:
		c.checkReturn(s)
	case *source.PrintStmt:
		for _, a := range s.Args {
			if _, ok := a.(*source.StringLit); ok {
				c.info.Types[a] = source.TypeInvalid
				continue
			}
			c.checkExpr(a)
		}
	default:
		c.errorf(s.Position(), "unhandled statement %T", s)
	}
}

func (c *checker) checkLocalDecl(s *source.LocalDecl) {
	size := int64(1)
	isArr := false
	if s.Size != nil {
		n, ok := c.constInt(s.Size)
		if !ok {
			return
		}
		if n <= 0 {
			c.errorf(s.Pos, "local array %s has non-positive size %d", s.Name, n)
			return
		}
		size, isArr = n, true
	}
	if s.Init != nil {
		t := c.checkExpr(s.Init)
		if t == source.TypeInvalid {
			return
		}
		if !assignable(t, s.Type) {
			c.errorf(s.Pos, "cannot initialize %s %s with %s value", s.Type, s.Name, t)
			return
		}
	}
	c.declareLocal(s.Name, s.Pos, s.Type, size, isArr)
}

func (c *checker) checkAssign(s *source.AssignStmt) {
	sym := c.resolve(s.LHS.Name)
	if sym == nil {
		c.errorf(s.LHS.Pos, "undefined: %s", s.LHS.Name)
		return
	}
	c.info.Refs[s.LHS] = sym
	switch sym.Kind {
	case SymEvent, SymLock:
		c.errorf(s.LHS.Pos, "cannot assign to %s %s", sym.Kind, sym.Name)
		return
	}
	if !c.checkIndexing(s.LHS, sym) {
		return
	}
	c.info.Types[s.LHS] = sym.Type
	t := c.checkExpr(s.RHS)
	if t == source.TypeInvalid {
		return
	}
	if !assignable(t, sym.Type) {
		c.errorf(s.Pos, "cannot assign %s value to %s %s", t, sym.Type, sym.Name)
	}
}

// checkIndexing validates the presence/absence of an index against the
// symbol's shape and checks the index expression type.
func (c *checker) checkIndexing(ref *source.VarRef, sym *Symbol) bool {
	if sym.IsArr {
		if ref.Index == nil {
			c.errorf(ref.Pos, "%s %s must be indexed", sym.Kind, sym.Name)
			return false
		}
		t := c.checkExpr(ref.Index)
		if t == source.TypeInvalid {
			return false
		}
		if t != source.TypeInt {
			c.errorf(ref.Index.Position(), "array index must be int, got %s", t)
			return false
		}
		return true
	}
	if ref.Index != nil {
		c.errorf(ref.Pos, "%s %s is not an array", sym.Kind, sym.Name)
		return false
	}
	return true
}

func (c *checker) checkSyncRef(ref *source.VarRef, want SymKind, op string) {
	sym := c.resolve(ref.Name)
	if sym == nil {
		c.errorf(ref.Pos, "undefined: %s", ref.Name)
		return
	}
	if sym.Kind != want {
		c.errorf(ref.Pos, "%s requires a %s, but %s is a %s", op, want, ref.Name, sym.Kind)
		return
	}
	c.info.Refs[ref] = sym
	c.checkIndexing(ref, sym)
}

func (c *checker) checkReturn(s *source.ReturnStmt) {
	want := c.fn.Result
	if s.Value == nil {
		if want != source.TypeVoid {
			c.errorf(s.Pos, "missing return value (function %s returns %s)", c.fn.Name, want)
		}
		return
	}
	if want == source.TypeVoid {
		c.errorf(s.Pos, "function %s returns no value", c.fn.Name)
		return
	}
	t := c.checkExpr(s.Value)
	if t != source.TypeInvalid && !assignable(t, want) {
		c.errorf(s.Pos, "cannot return %s from function returning %s", t, want)
	}
}

func (c *checker) checkCond(e source.Expr) {
	t := c.checkExpr(e)
	if t != source.TypeInvalid && t != source.TypeBool && t != source.TypeInt {
		c.errorf(e.Position(), "condition must be boolean or int, got %s", t)
	}
}

// assignable reports whether a value of type from may be stored in type to.
// Ints widen implicitly to floats; all other conversions are explicit.
func assignable(from, to source.Type) bool {
	if from == to {
		return true
	}
	if from == source.TypeBool && to == source.TypeInt {
		return true // comparisons store as 0/1
	}
	return from == source.TypeInt && to == source.TypeFloat
}

func (c *checker) checkExpr(e source.Expr) source.Type {
	t := c.exprType(e)
	c.info.Types[e] = t
	return t
}

func (c *checker) exprType(e source.Expr) source.Type {
	switch e := e.(type) {
	case *source.IntLit:
		return source.TypeInt
	case *source.FloatLit:
		return source.TypeFloat
	case *source.StringLit:
		c.errorf(e.Pos, "string literals are only allowed in print")
		return source.TypeInvalid
	case *source.MyProcExpr, *source.ProcsExpr:
		return source.TypeInt
	case *source.VarRef:
		sym := c.resolve(e.Name)
		if sym == nil {
			c.errorf(e.Pos, "undefined: %s", e.Name)
			return source.TypeInvalid
		}
		if sym.Kind == SymEvent || sym.Kind == SymLock {
			c.errorf(e.Pos, "%s %s cannot be used as a value", sym.Kind, sym.Name)
			return source.TypeInvalid
		}
		c.info.Refs[e] = sym
		if !c.checkIndexing(e, sym) {
			return source.TypeInvalid
		}
		return sym.Type
	case *source.UnExpr:
		t := c.checkExpr(e.X)
		if t == source.TypeInvalid {
			return source.TypeInvalid
		}
		switch e.Op {
		case source.OpNeg:
			if t != source.TypeInt && t != source.TypeFloat {
				c.errorf(e.Pos, "cannot negate %s", t)
				return source.TypeInvalid
			}
			return t
		case source.OpNot:
			if t != source.TypeBool && t != source.TypeInt {
				c.errorf(e.Pos, "cannot apply ! to %s", t)
				return source.TypeInvalid
			}
			return source.TypeBool
		}
		return source.TypeInvalid
	case *source.BinExpr:
		lt := c.checkExpr(e.L)
		rt := c.checkExpr(e.R)
		if lt == source.TypeInvalid || rt == source.TypeInvalid {
			return source.TypeInvalid
		}
		switch e.Op {
		case source.OpAdd, source.OpSub, source.OpMul, source.OpDiv:
			if !numeric(lt) || !numeric(rt) {
				c.errorf(e.Pos, "operator %s requires numeric operands, got %s and %s", e.Op, lt, rt)
				return source.TypeInvalid
			}
			if lt == source.TypeFloat || rt == source.TypeFloat {
				return source.TypeFloat
			}
			return source.TypeInt
		case source.OpMod:
			if lt != source.TypeInt || rt != source.TypeInt {
				c.errorf(e.Pos, "operator %% requires int operands, got %s and %s", lt, rt)
				return source.TypeInvalid
			}
			return source.TypeInt
		case source.OpEq, source.OpNeq, source.OpLt, source.OpLe, source.OpGt, source.OpGe:
			if !numeric(lt) || !numeric(rt) {
				c.errorf(e.Pos, "operator %s requires numeric operands, got %s and %s", e.Op, lt, rt)
				return source.TypeInvalid
			}
			return source.TypeBool
		case source.OpAnd, source.OpOr:
			if !boolish(lt) || !boolish(rt) {
				c.errorf(e.Pos, "operator %s requires boolean operands, got %s and %s", e.Op, lt, rt)
				return source.TypeInvalid
			}
			return source.TypeBool
		}
		return source.TypeInvalid
	case *source.CallExpr:
		return c.checkCall(e, false)
	default:
		c.errorf(e.Position(), "unhandled expression %T", e)
		return source.TypeInvalid
	}
}

func numeric(t source.Type) bool { return t == source.TypeInt || t == source.TypeFloat }
func boolish(t source.Type) bool { return t == source.TypeBool || t == source.TypeInt }

func (c *checker) checkCall(e *source.CallExpr, asStmt bool) source.Type {
	if b, ok := builtins[e.Name]; ok {
		c.info.Builtin[e] = e.Name
		if len(e.Args) != len(b.params) {
			c.errorf(e.Pos, "%s takes %d arguments, got %d", e.Name, len(b.params), len(e.Args))
			return source.TypeInvalid
		}
		for i, a := range e.Args {
			t := c.checkExpr(a)
			if t == source.TypeInvalid {
				return source.TypeInvalid
			}
			if !assignable(t, b.params[i]) {
				c.errorf(a.Position(), "%s argument %d must be %s, got %s", e.Name, i+1, b.params[i], t)
				return source.TypeInvalid
			}
		}
		c.info.Types[e] = b.result
		return b.result
	}
	f := c.info.Funcs[e.Name]
	if f == nil {
		c.errorf(e.Pos, "undefined function: %s", e.Name)
		return source.TypeInvalid
	}
	c.info.Calls[e] = f
	if len(e.Args) != len(f.Params) {
		c.errorf(e.Pos, "%s takes %d arguments, got %d", e.Name, len(f.Params), len(e.Args))
		return source.TypeInvalid
	}
	for i, a := range e.Args {
		t := c.checkExpr(a)
		if t == source.TypeInvalid {
			return source.TypeInvalid
		}
		if !assignable(t, f.Params[i].Type) {
			c.errorf(a.Position(), "%s argument %d must be %s, got %s", e.Name, i+1, f.Params[i].Type, t)
			return source.TypeInvalid
		}
	}
	if !asStmt && f.Result == source.TypeVoid {
		c.errorf(e.Pos, "%s returns no value", e.Name)
		return source.TypeInvalid
	}
	c.info.Types[e] = f.Result
	return f.Result
}

// checkNoRecursion verifies the user call graph is acyclic (the IR builder
// inlines all calls, so recursion cannot be compiled).
func (c *checker) checkNoRecursion(prog *source.Program) error {
	// Walk each function body to find its call sites.
	callees := make(map[string]map[string]bool)
	for _, f := range prog.Funcs() {
		set := make(map[string]bool)
		collectCalls(f.Body, set)
		callees[f.Name] = set
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	var visit func(name string, path []string) error
	visit = func(name string, path []string) error {
		switch color[name] {
		case gray:
			return &Error{Msg: fmt.Sprintf("recursive call cycle involving %s (MiniSplit functions are inlined and may not recurse): %v", name, append(path, name))}
		case black:
			return nil
		}
		color[name] = gray
		for callee := range callees[name] {
			if _, isUser := c.info.Funcs[callee]; !isUser {
				continue
			}
			if err := visit(callee, append(path, name)); err != nil {
				return err
			}
		}
		color[name] = black
		return nil
	}
	for _, f := range prog.Funcs() {
		if err := visit(f.Name, nil); err != nil {
			return err
		}
	}
	return nil
}

func collectCalls(n any, out map[string]bool) {
	switch n := n.(type) {
	case *source.BlockStmt:
		for _, s := range n.Stmts {
			collectCalls(s, out)
		}
	case *source.LocalDecl:
		if n.Init != nil {
			collectCalls(n.Init, out)
		}
	case *source.AssignStmt:
		collectCalls(n.LHS, out)
		collectCalls(n.RHS, out)
	case *source.IfStmt:
		collectCalls(n.Cond, out)
		collectCalls(n.Then, out)
		if n.Else != nil {
			collectCalls(n.Else, out)
		}
	case *source.WhileStmt:
		collectCalls(n.Cond, out)
		collectCalls(n.Body, out)
	case *source.ForStmt:
		if n.Init != nil {
			collectCalls(n.Init, out)
		}
		if n.Cond != nil {
			collectCalls(n.Cond, out)
		}
		if n.Post != nil {
			collectCalls(n.Post, out)
		}
		collectCalls(n.Body, out)
	case *source.CallStmt:
		collectCalls(n.Call, out)
	case *source.ReturnStmt:
		if n.Value != nil {
			collectCalls(n.Value, out)
		}
	case *source.PrintStmt:
		for _, a := range n.Args {
			collectCalls(a, out)
		}
	case *source.PostStmt:
		collectCalls(n.Event, out)
	case *source.WaitStmt:
		collectCalls(n.Event, out)
	case *source.LockStmt:
		collectCalls(n.Lock, out)
	case *source.UnlockStmt:
		collectCalls(n.Lock, out)
	case *source.VarRef:
		if n.Index != nil {
			collectCalls(n.Index, out)
		}
	case *source.BinExpr:
		collectCalls(n.L, out)
		collectCalls(n.R, out)
	case *source.UnExpr:
		collectCalls(n.X, out)
	case *source.CallExpr:
		out[n.Name] = true
		for _, a := range n.Args {
			collectCalls(a, out)
		}
	}
}
