package ir

import (
	"math"

	"repro/internal/source"
)

// Fold performs local constant folding and algebraic simplification on an
// expression tree. Folding runs during IR construction so that, when the
// machine size is compile-time known, index expressions like
// (N/PROCS)*MYPROC + i collapse into the affine shapes the conflict
// disambiguator recognizes.
func Fold(e Expr) Expr {
	switch e := e.(type) {
	case *Bin:
		l := Fold(e.L)
		r := Fold(e.R)
		if lc, ok := l.(*Const); ok {
			if rc, ok := r.(*Const); ok {
				if v, ok := EvalBin(e.Op, lc.Val, rc.Val); ok {
					return &Const{Val: v}
				}
			}
		}
		// Algebraic identities on ints (safe: no NaN concerns).
		if e.T == source.TypeInt {
			if isIntConst(l, 0) && e.Op == source.OpAdd {
				return r
			}
			if isIntConst(r, 0) && (e.Op == source.OpAdd || e.Op == source.OpSub) {
				return l
			}
			if (isIntConst(l, 0) || isIntConst(r, 0)) && e.Op == source.OpMul {
				return &Const{Val: IntVal(0)}
			}
			if isIntConst(l, 1) && e.Op == source.OpMul {
				return r
			}
			if isIntConst(r, 1) && (e.Op == source.OpMul || e.Op == source.OpDiv) {
				return l
			}
		}
		return &Bin{Op: e.Op, T: e.T, L: l, R: r}
	case *Un:
		x := Fold(e.X)
		if xc, ok := x.(*Const); ok {
			if v, ok := EvalUn(e.Op, xc.Val); ok {
				return &Const{Val: v}
			}
		}
		return &Un{Op: e.Op, T: e.T, X: x}
	case *BuiltinCall:
		args := make([]Expr, len(e.Args))
		allConst := true
		vals := make([]Value, len(e.Args))
		for i, a := range e.Args {
			args[i] = Fold(a)
			if c, ok := args[i].(*Const); ok {
				vals[i] = c.Val
			} else {
				allConst = false
			}
		}
		if allConst {
			if v, ok := EvalBuiltin(e.Name, vals); ok {
				return &Const{Val: v}
			}
		}
		return &BuiltinCall{Name: e.Name, Args: args, T: e.T}
	default:
		return e
	}
}

func isIntConst(e Expr, v int64) bool {
	c, ok := e.(*Const)
	return ok && c.Val.T == source.TypeInt && c.Val.I == v
}

// EvalBin evaluates a binary operation on two constant values. It returns
// ok=false for division by zero (left for runtime diagnosis).
func EvalBin(op source.BinOp, l, r Value) (Value, bool) {
	isFloat := l.T == source.TypeFloat || r.T == source.TypeFloat
	if isFloat {
		lf, rf := l.Float(), r.Float()
		switch op {
		case source.OpAdd:
			return FloatVal(lf + rf), true
		case source.OpSub:
			return FloatVal(lf - rf), true
		case source.OpMul:
			return FloatVal(lf * rf), true
		case source.OpDiv:
			if rf == 0 {
				return Value{}, false
			}
			return FloatVal(lf / rf), true
		case source.OpEq:
			return BoolVal(lf == rf), true
		case source.OpNeq:
			return BoolVal(lf != rf), true
		case source.OpLt:
			return BoolVal(lf < rf), true
		case source.OpLe:
			return BoolVal(lf <= rf), true
		case source.OpGt:
			return BoolVal(lf > rf), true
		case source.OpGe:
			return BoolVal(lf >= rf), true
		}
		return Value{}, false
	}
	li, ri := l.I, r.I
	switch op {
	case source.OpAdd:
		return IntVal(li + ri), true
	case source.OpSub:
		return IntVal(li - ri), true
	case source.OpMul:
		return IntVal(li * ri), true
	case source.OpDiv:
		if ri == 0 {
			return Value{}, false
		}
		return IntVal(li / ri), true
	case source.OpMod:
		if ri == 0 {
			return Value{}, false
		}
		return IntVal(li % ri), true
	case source.OpEq:
		return BoolVal(li == ri), true
	case source.OpNeq:
		return BoolVal(li != ri), true
	case source.OpLt:
		return BoolVal(li < ri), true
	case source.OpLe:
		return BoolVal(li <= ri), true
	case source.OpGt:
		return BoolVal(li > ri), true
	case source.OpGe:
		return BoolVal(li >= ri), true
	case source.OpAnd:
		return BoolVal(li != 0 && ri != 0), true
	case source.OpOr:
		return BoolVal(li != 0 || ri != 0), true
	}
	return Value{}, false
}

// EvalUn evaluates a unary operation on a constant value.
func EvalUn(op source.UnOp, x Value) (Value, bool) {
	switch op {
	case source.OpNeg:
		if x.T == source.TypeFloat {
			return FloatVal(-x.F), true
		}
		return IntVal(-x.I), true
	case source.OpNot:
		return BoolVal(!x.IsTrue()), true
	}
	return Value{}, false
}

// EvalBuiltin evaluates a pure builtin on constant values.
func EvalBuiltin(name string, args []Value) (Value, bool) {
	switch name {
	case "itof":
		return FloatVal(float64(args[0].I)), true
	case "ftoi":
		return IntVal(int64(args[0].Float())), true
	case "fabs":
		return FloatVal(math.Abs(args[0].Float())), true
	case "fsqrt":
		if args[0].Float() < 0 {
			return Value{}, false // left for runtime diagnosis
		}
		return FloatVal(math.Sqrt(args[0].Float())), true
	case "imin":
		if args[0].I < args[1].I {
			return args[0], true
		}
		return args[1], true
	case "imax":
		if args[0].I > args[1].I {
			return args[0], true
		}
		return args[1], true
	}
	return Value{}, false
}

// ExprEqual reports structural equality of two expressions. Used by the
// redundant-communication eliminator to recognize repeated addresses.
func ExprEqual(a, b Expr) bool {
	switch a := a.(type) {
	case *Const:
		bc, ok := b.(*Const)
		return ok && a.Val == bc.Val
	case *LocalRef:
		bl, ok := b.(*LocalRef)
		return ok && a.ID == bl.ID
	case *ElemRef:
		be, ok := b.(*ElemRef)
		return ok && a.Arr == be.Arr && ExprEqual(a.Index, be.Index)
	case *MyProc:
		_, ok := b.(*MyProc)
		return ok
	case *Procs:
		_, ok := b.(*Procs)
		return ok
	case *Bin:
		bb, ok := b.(*Bin)
		return ok && a.Op == bb.Op && ExprEqual(a.L, bb.L) && ExprEqual(a.R, bb.R)
	case *Un:
		bu, ok := b.(*Un)
		return ok && a.Op == bu.Op && ExprEqual(a.X, bu.X)
	case *BuiltinCall:
		bc, ok := b.(*BuiltinCall)
		if !ok || a.Name != bc.Name || len(a.Args) != len(bc.Args) {
			return false
		}
		for i := range a.Args {
			if !ExprEqual(a.Args[i], bc.Args[i]) {
				return false
			}
		}
		return true
	case nil:
		return b == nil
	}
	return false
}

// ExprLocals appends the IDs of all locals read by e to out and returns it.
func ExprLocals(e Expr, out []LocalID) []LocalID {
	switch e := e.(type) {
	case *LocalRef:
		out = append(out, e.ID)
	case *ElemRef:
		out = append(out, e.Arr)
		out = ExprLocals(e.Index, out)
	case *Bin:
		out = ExprLocals(e.L, out)
		out = ExprLocals(e.R, out)
	case *Un:
		out = ExprLocals(e.X, out)
	case *BuiltinCall:
		for _, a := range e.Args {
			out = ExprLocals(a, out)
		}
	}
	return out
}

// ExprUsesLocal reports whether e reads the given local.
func ExprUsesLocal(e Expr, id LocalID) bool {
	switch e := e.(type) {
	case *LocalRef:
		return e.ID == id
	case *ElemRef:
		return e.Arr == id || ExprUsesLocal(e.Index, id)
	case *Bin:
		return ExprUsesLocal(e.L, id) || ExprUsesLocal(e.R, id)
	case *Un:
		return ExprUsesLocal(e.X, id)
	case *BuiltinCall:
		for _, a := range e.Args {
			if ExprUsesLocal(a, id) {
				return true
			}
		}
	}
	return false
}
