package ir

import (
	"fmt"

	"repro/internal/sem"
	"repro/internal/source"
)

// BuildOptions configures IR construction.
type BuildOptions struct {
	// Procs, when positive, folds the PROCS builtin to this constant.
	// Constant-known machine size sharpens the array index disambiguation
	// (cyclic-layout owner tests need PROCS). Zero leaves PROCS symbolic.
	Procs int
}

// Build lowers the checked program's main function (with all calls inlined)
// to IR.
func Build(info *sem.Info, opts BuildOptions) (*Fn, error) {
	b := &builder{
		info: info,
		fn: &Fn{
			Name:   "main",
			Ranges: make(map[LocalID]IntRange),
			Info:   info,
			Procs:  opts.Procs,
		},
	}
	entry := b.fn.NewBlock()
	b.cur = entry
	main := info.Funcs["main"]
	b.pushScope()
	b.stmts(main.Body.Stmts)
	b.popScope()
	if b.err != nil {
		return nil, b.err
	}
	b.cur.Term = &Ret{}
	b.indexAccessPositions()
	return b.fn, nil
}

// MustBuild parses, checks and builds src, panicking on error. Test helper.
func MustBuild(src string, opts BuildOptions) *Fn {
	prog, err := source.Parse(src)
	if err != nil {
		panic(err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		panic(err)
	}
	fn, err := Build(info, opts)
	if err != nil {
		panic(err)
	}
	return fn
}

type scope struct {
	vars map[string]LocalID
}

type inlineCtx struct {
	fn     *source.FuncDecl
	result LocalID // result local (valid if fn has a result)
	after  *Block  // continuation block for returns
}

type builder struct {
	info *sem.Info
	fn   *Fn
	cur  *Block
	// scopes maps source names to locals; innermost last. Function
	// inlining pushes a fresh base scope so names cannot leak.
	scopes  []scope
	inlines []inlineCtx
	tmpN    int
	err     error
}

func (b *builder) errorf(pos source.Pos, format string, args ...any) {
	if b.err == nil {
		b.err = &sem.Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
	}
}

func (b *builder) pushScope() { b.scopes = append(b.scopes, scope{vars: map[string]LocalID{}}) }
func (b *builder) popScope()  { b.scopes = b.scopes[:len(b.scopes)-1] }

func (b *builder) lookupLocal(name string) (LocalID, bool) {
	for i := len(b.scopes) - 1; i >= 0; i-- {
		if id, ok := b.scopes[i].vars[name]; ok {
			return id, true
		}
	}
	return 0, false
}

func (b *builder) defineLocal(name string, t source.Type, size int64, isArr bool) LocalID {
	uname := fmt.Sprintf("%s.%d", name, len(b.fn.Locals))
	l := b.fn.NewLocal(uname, t, size, isArr)
	b.scopes[len(b.scopes)-1].vars[name] = l.ID
	return l.ID
}

func (b *builder) newTemp(t source.Type) LocalID {
	b.tmpN++
	l := b.fn.NewLocal(fmt.Sprintf("t%d", b.tmpN), t, 1, false)
	return l.ID
}

func (b *builder) emit(s Stmt) { b.cur.Stmts = append(b.cur.Stmts, s) }

func (b *builder) stmts(list []source.Stmt) {
	for _, s := range list {
		if b.err != nil {
			return
		}
		b.stmt(s)
	}
}

func (b *builder) stmt(s source.Stmt) {
	switch s := s.(type) {
	case *source.BlockStmt:
		b.pushScope()
		b.stmts(s.Stmts)
		b.popScope()
	case *source.LocalDecl:
		id := b.defineLocal(s.Name, s.Type, b.localSize(s), s.Size != nil)
		if s.Init != nil {
			if acc := b.directLoad(s.Init, s.Type); acc != nil {
				b.emit(&Load{Dst: id, Acc: acc})
				return
			}
			e := b.expr(s.Init)
			b.emit(&Assign{Dst: id, Src: coerce(e, s.Type)})
		} else if s.Size == nil {
			// Zero-initialize scalars for determinism.
			b.emit(&Assign{Dst: id, Src: zeroOf(s.Type)})
		}
	case *source.AssignStmt:
		b.assign(s)
	case *source.IfStmt:
		b.ifStmt(s)
	case *source.WhileStmt:
		b.whileStmt(s)
	case *source.ForStmt:
		b.forStmt(s)
	case *source.BarrierStmt:
		acc := b.fn.NewAccess(AccBarrier, nil, nil, s.Pos)
		b.emit(&SyncOp{Acc: acc})
	case *source.PostStmt:
		b.syncRef(AccPost, s.Event)
	case *source.WaitStmt:
		b.syncRef(AccWait, s.Event)
	case *source.LockStmt:
		b.syncRef(AccLock, s.Lock)
	case *source.UnlockStmt:
		b.syncRef(AccUnlock, s.Lock)
	case *source.CallStmt:
		b.inlineCall(s.Call)
	case *source.ReturnStmt:
		b.returnStmt(s)
	case *source.PrintStmt:
		p := &Print{}
		for _, a := range s.Args {
			if lit, ok := a.(*source.StringLit); ok {
				p.Args = append(p.Args, PrintArg{Str: lit.Value, IsStr: true})
			} else {
				p.Args = append(p.Args, PrintArg{E: b.expr(a)})
			}
		}
		b.emit(p)
	default:
		b.errorf(s.Position(), "ir: unhandled statement %T", s)
	}
}

func (b *builder) localSize(s *source.LocalDecl) int64 {
	if s.Size == nil {
		return 1
	}
	// sem validated this as a constant.
	v, _ := b.constOf(s.Size)
	return v
}

// directLoad recognizes an initializer/RHS that is exactly one shared
// read of matching type, so the load can target the destination local
// directly (keeping the use distance open for sync motion).
func (b *builder) directLoad(e source.Expr, want source.Type) *Access {
	ref, ok := e.(*source.VarRef)
	if !ok {
		return nil
	}
	sym := b.info.Refs[ref]
	if sym == nil || (sym.Kind != sem.SymSharedScalar && sym.Kind != sem.SymSharedArray) {
		return nil
	}
	if sym.Type != want {
		return nil // widening would need a temp
	}
	var idx Expr
	if ref.Index != nil {
		idx = Fold(b.expr(ref.Index))
	}
	return b.fn.NewAccess(AccRead, sym, idx, ref.Pos)
}

func (b *builder) assign(s *source.AssignStmt) {
	sym := b.info.Refs[s.LHS]
	if sym.Kind == sem.SymLocal && !sym.IsArr {
		if acc := b.directLoad(s.RHS, sym.Type); acc != nil {
			if id, ok := b.lookupLocal(s.LHS.Name); ok {
				b.emit(&Load{Dst: id, Acc: acc})
				return
			}
		}
	}
	rhs := b.expr(s.RHS)
	switch sym.Kind {
	case sem.SymLocal:
		id, ok := b.lookupLocal(s.LHS.Name)
		if !ok {
			b.errorf(s.Pos, "ir: local %s not in scope", s.LHS.Name)
			return
		}
		if sym.IsArr {
			idx := b.expr(s.LHS.Index)
			b.emit(&SetElem{Arr: id, Index: idx, Src: coerce(rhs, sym.Type)})
		} else {
			b.emit(&Assign{Dst: id, Src: coerce(rhs, sym.Type)})
		}
	case sem.SymSharedScalar, sem.SymSharedArray:
		var idx Expr
		if s.LHS.Index != nil {
			idx = Fold(b.expr(s.LHS.Index))
		}
		acc := b.fn.NewAccess(AccWrite, sym, idx, s.Pos)
		b.emit(&Store{Acc: acc, Src: coerce(rhs, sym.Type)})
	default:
		b.errorf(s.Pos, "ir: cannot assign to %s", sym.Kind)
	}
}

func (b *builder) syncRef(kind AccessKind, ref *source.VarRef) {
	sym := b.info.Refs[ref]
	var idx Expr
	if ref.Index != nil {
		idx = Fold(b.expr(ref.Index))
	}
	acc := b.fn.NewAccess(kind, sym, idx, ref.Pos)
	b.emit(&SyncOp{Acc: acc})
}

func (b *builder) ifStmt(s *source.IfStmt) {
	cond := b.expr(s.Cond)
	thenB := b.fn.NewBlock()
	var elseB *Block
	join := b.fn.NewBlock()
	if s.Else != nil {
		elseB = b.fn.NewBlock()
		b.cur.Term = &Branch{Cond: cond, Then: thenB, Else: elseB}
	} else {
		b.cur.Term = &Branch{Cond: cond, Then: thenB, Else: join}
	}
	b.cur = thenB
	b.pushScope()
	b.stmts(s.Then.Stmts)
	b.popScope()
	b.cur.Term = &Jump{To: join}
	if s.Else != nil {
		b.cur = elseB
		b.pushScope()
		b.stmts(s.Else.Stmts)
		b.popScope()
		b.cur.Term = &Jump{To: join}
	}
	b.cur = join
}

func (b *builder) whileStmt(s *source.WhileStmt) {
	head := b.fn.NewBlock()
	body := b.fn.NewBlock()
	exit := b.fn.NewBlock()
	b.cur.Term = &Jump{To: head}
	b.cur = head
	cond := b.expr(s.Cond)
	b.cur.Term = &Branch{Cond: cond, Then: body, Else: exit}
	b.cur = body
	b.pushScope()
	b.stmts(s.Body.Stmts)
	b.popScope()
	b.cur.Term = &Jump{To: head}
	b.cur = exit
}

func (b *builder) forStmt(s *source.ForStmt) {
	b.pushScope()
	var indVar LocalID = -1
	var lo int64
	var haveLo bool
	if s.Init != nil {
		b.stmt(s.Init)
		switch init := s.Init.(type) {
		case *source.LocalDecl:
			if init.Size == nil && init.Init != nil {
				if id, ok := b.lookupLocal(init.Name); ok {
					if v, ok2 := b.constOf(init.Init); ok2 {
						indVar, lo, haveLo = id, v, true
					}
				}
			}
		case *source.AssignStmt:
			if init.LHS.Index == nil {
				if id, ok := b.lookupLocal(init.LHS.Name); ok {
					if v, ok2 := b.constOf(init.RHS); ok2 {
						indVar, lo, haveLo = id, v, true
					}
				}
			}
		}
	}
	head := b.fn.NewBlock()
	body := b.fn.NewBlock()
	exit := b.fn.NewBlock()
	b.cur.Term = &Jump{To: head}
	b.cur = head
	if s.Cond != nil {
		cond := b.expr(s.Cond)
		b.cur.Term = &Branch{Cond: cond, Then: body, Else: exit}
	} else {
		b.cur.Term = &Jump{To: body}
	}
	b.cur = body
	b.pushScope()
	b.stmts(s.Body.Stmts)
	b.popScope()
	if s.Post != nil {
		b.stmt(s.Post)
	}
	b.cur.Term = &Jump{To: head}

	// Record the induction range for the classic counted-loop shape:
	//   for (i = lo; i < hi; i = i + step), step > 0, i not written in body.
	if haveLo && s.Cond != nil && s.Post != nil {
		if hi, ok := b.countedLoopBound(s.Cond, indVar); ok {
			if b.postIsIncrement(s.Post, indVar) && !writesVar(s.Body, sourceAssignName(s.Post)) {
				b.fn.Ranges[indVar] = IntRange{Lo: lo, Hi: hi}
			}
		}
	}
	b.popScope()
	b.cur = exit
}

// constOf evaluates a source expression to a compile-time int constant,
// folding PROCS when the machine size is known.
func (b *builder) constOf(e source.Expr) (int64, bool) {
	ire := Fold(b.exprPure(e))
	if c, ok := ire.(*Const); ok && c.Val.T == source.TypeInt {
		return c.Val.I, true
	}
	return 0, false
}

// exprPure lowers an expression that is known to contain no shared reads
// or calls (used for bound analysis only; falls back to a dummy on misuse).
func (b *builder) exprPure(e source.Expr) Expr {
	switch e := e.(type) {
	case *source.IntLit:
		return &Const{Val: IntVal(e.Value)}
	case *source.ProcsExpr:
		if b.fn.Procs > 0 {
			return &Const{Val: IntVal(int64(b.fn.Procs))}
		}
		return &Procs{}
	case *source.MyProcExpr:
		return &MyProc{}
	case *source.BinExpr:
		l := b.exprPure(e.L)
		r := b.exprPure(e.R)
		return &Bin{Op: e.Op, T: source.TypeInt, L: l, R: r}
	case *source.UnExpr:
		return &Un{Op: e.Op, T: source.TypeInt, X: b.exprPure(e.X)}
	case *source.VarRef:
		if id, ok := b.lookupLocal(e.Name); ok && e.Index == nil {
			return &LocalRef{ID: id, T: b.fn.Local(id).Type}
		}
	}
	return &MyProc{} // non-constant placeholder; callers only test for Const
}

// countedLoopBound extracts hi from "i < hi" or "i <= hi-1" style conditions.
func (b *builder) countedLoopBound(cond source.Expr, ind LocalID) (int64, bool) {
	be, ok := cond.(*source.BinExpr)
	if !ok {
		return 0, false
	}
	l, ok := be.L.(*source.VarRef)
	if !ok || l.Index != nil {
		return 0, false
	}
	id, ok := b.lookupLocal(l.Name)
	if !ok || id != ind {
		return 0, false
	}
	hi, ok := b.constOf(be.R)
	if !ok {
		return 0, false
	}
	switch be.Op {
	case source.OpLt:
		return hi, true
	case source.OpLe:
		return hi + 1, true
	}
	return 0, false
}

// postIsIncrement matches "i = i + c" (or "i = c + i") with c > 0.
func (b *builder) postIsIncrement(post source.Stmt, ind LocalID) bool {
	as, ok := post.(*source.AssignStmt)
	if !ok || as.LHS.Index != nil {
		return false
	}
	id, ok := b.lookupLocal(as.LHS.Name)
	if !ok || id != ind {
		return false
	}
	be, ok := as.RHS.(*source.BinExpr)
	if !ok || be.Op != source.OpAdd {
		return false
	}
	isInd := func(e source.Expr) bool {
		vr, ok := e.(*source.VarRef)
		if !ok || vr.Index != nil {
			return false
		}
		vid, ok := b.lookupLocal(vr.Name)
		return ok && vid == ind
	}
	isPosConst := func(e source.Expr) bool {
		c, ok := b.constOf(e)
		return ok && c > 0
	}
	return (isInd(be.L) && isPosConst(be.R)) || (isInd(be.R) && isPosConst(be.L))
}

func sourceAssignName(post source.Stmt) string {
	if as, ok := post.(*source.AssignStmt); ok {
		return as.LHS.Name
	}
	return ""
}

// writesVar reports whether the block writes the named variable.
func writesVar(n source.Stmt, name string) bool {
	if name == "" {
		return true
	}
	found := false
	var walk func(s source.Stmt)
	walk = func(s source.Stmt) {
		switch s := s.(type) {
		case *source.BlockStmt:
			for _, inner := range s.Stmts {
				walk(inner)
			}
		case *source.AssignStmt:
			if s.LHS.Name == name && s.LHS.Index == nil {
				found = true
			}
		case *source.LocalDecl:
			if s.Name == name {
				// Shadowing declaration: writes in deeper scope target a
				// different variable, but stay conservative.
				found = true
			}
		case *source.IfStmt:
			walk(s.Then)
			if s.Else != nil {
				walk(s.Else)
			}
		case *source.WhileStmt:
			walk(s.Body)
		case *source.ForStmt:
			if s.Init != nil {
				walk(s.Init)
			}
			if s.Post != nil {
				walk(s.Post)
			}
			walk(s.Body)
		}
	}
	walk(n)
	return found
}

func (b *builder) returnStmt(s *source.ReturnStmt) {
	if len(b.inlines) == 0 {
		// return from main: jump to a fresh unreachable block after Ret.
		b.cur.Term = &Ret{}
		b.cur = b.fn.NewBlock()
		return
	}
	ctx := b.inlines[len(b.inlines)-1]
	if s.Value != nil {
		v := b.expr(s.Value)
		b.emit(&Assign{Dst: ctx.result, Src: coerce(v, ctx.fn.Result)})
	}
	b.cur.Term = &Jump{To: ctx.after}
	b.cur = b.fn.NewBlock() // unreachable continuation for dead code after return
}

// inlineCall expands a user function call inline and returns the local
// holding its result (meaningful only for non-void callees).
func (b *builder) inlineCall(call *source.CallExpr) LocalID {
	f := b.info.Calls[call]
	if f == nil {
		b.errorf(call.Pos, "ir: call to unknown function %s", call.Name)
		return 0
	}
	// Evaluate arguments in the caller's scope.
	args := make([]Expr, len(call.Args))
	for i, a := range call.Args {
		args[i] = coerce(b.expr(a), f.Params[i].Type)
	}
	after := b.fn.NewBlock()
	var result LocalID
	if f.Result != source.TypeVoid {
		result = b.newTemp(f.Result)
	}
	// Fresh base scope: callee cannot see caller locals.
	savedScopes := b.scopes
	b.scopes = nil
	b.pushScope()
	for i, p := range f.Params {
		id := b.defineLocal(p.Name, p.Type, 1, false)
		// Emission happens in the caller's current block, which is correct:
		// arguments bind before the body runs.
		b.emit(&Assign{Dst: id, Src: args[i]})
	}
	b.inlines = append(b.inlines, inlineCtx{fn: f, result: result, after: after})
	b.stmts(f.Body.Stmts)
	b.inlines = b.inlines[:len(b.inlines)-1]
	b.popScope()
	b.scopes = savedScopes
	b.cur.Term = &Jump{To: after}
	b.cur = after
	return result
}

// expr lowers a source expression, emitting Load statements for shared
// reads and inlining user calls.
func (b *builder) expr(e source.Expr) Expr {
	switch e := e.(type) {
	case *source.IntLit:
		return &Const{Val: IntVal(e.Value)}
	case *source.FloatLit:
		return &Const{Val: FloatVal(e.Value)}
	case *source.MyProcExpr:
		return &MyProc{}
	case *source.ProcsExpr:
		if b.fn.Procs > 0 {
			return &Const{Val: IntVal(int64(b.fn.Procs))}
		}
		return &Procs{}
	case *source.VarRef:
		return b.varRef(e)
	case *source.BinExpr:
		l := b.expr(e.L)
		r := b.expr(e.R)
		t := b.info.Types[e]
		if t == source.TypeBool {
			t = source.TypeInt
		}
		// Arithmetic on mixed int/float widens.
		if t == source.TypeFloat {
			l, r = coerce(l, source.TypeFloat), coerce(r, source.TypeFloat)
		}
		return Fold(&Bin{Op: e.Op, T: t, L: l, R: r})
	case *source.UnExpr:
		x := b.expr(e.X)
		t := b.info.Types[e]
		if t == source.TypeBool {
			t = source.TypeInt
		}
		return Fold(&Un{Op: e.Op, T: t, X: x})
	case *source.CallExpr:
		if name, ok := b.info.Builtin[e]; ok {
			bc := &BuiltinCall{Name: name, T: b.info.Types[e]}
			for i, a := range e.Args {
				arg := b.expr(a)
				// Widen int args for float builtins.
				switch name {
				case "fabs", "fsqrt":
					arg = coerce(arg, source.TypeFloat)
				case "ftoi":
					arg = coerce(arg, source.TypeFloat)
				case "imin", "imax", "itof":
					_ = i
				}
				bc.Args = append(bc.Args, arg)
			}
			return Fold(bc)
		}
		res := b.inlineCall(e)
		f := b.info.Calls[e]
		return &LocalRef{ID: res, T: f.Result}
	default:
		b.errorf(e.Position(), "ir: unhandled expression %T", e)
		return &Const{Val: IntVal(0)}
	}
}

func (b *builder) varRef(e *source.VarRef) Expr {
	sym := b.info.Refs[e]
	switch sym.Kind {
	case sem.SymLocal:
		id, ok := b.lookupLocal(e.Name)
		if !ok {
			b.errorf(e.Pos, "ir: local %s not in scope", e.Name)
			return &Const{Val: IntVal(0)}
		}
		if sym.IsArr {
			return &ElemRef{Arr: id, Index: b.expr(e.Index), T: sym.Type}
		}
		return &LocalRef{ID: id, T: sym.Type}
	case sem.SymSharedScalar, sem.SymSharedArray:
		var idx Expr
		if e.Index != nil {
			idx = Fold(b.expr(e.Index))
		}
		acc := b.fn.NewAccess(AccRead, sym, idx, e.Pos)
		tmp := b.newTemp(sym.Type)
		b.emit(&Load{Dst: tmp, Acc: acc})
		return &LocalRef{ID: tmp, T: sym.Type}
	default:
		b.errorf(e.Pos, "ir: %s %s cannot be read as a value", sym.Kind, sym.Name)
		return &Const{Val: IntVal(0)}
	}
}

// coerce widens an int expression to float if needed.
func coerce(e Expr, want source.Type) Expr {
	if want == source.TypeFloat && e.Type() == source.TypeInt {
		if c, ok := e.(*Const); ok {
			return &Const{Val: FloatVal(float64(c.Val.I))}
		}
		return &BuiltinCall{Name: "itof", Args: []Expr{e}, T: source.TypeFloat}
	}
	return e
}

func zeroOf(t source.Type) Expr {
	if t == source.TypeFloat {
		return &Const{Val: FloatVal(0)}
	}
	return &Const{Val: IntVal(0)}
}

// indexAccessPositions records each access's block and in-block index.
func (b *builder) indexAccessPositions() {
	for _, blk := range b.fn.Blocks {
		for i, s := range blk.Stmts {
			if a := AccessOf(s); a != nil {
				a.Blk = blk
				a.Idx = i
			}
		}
	}
}
