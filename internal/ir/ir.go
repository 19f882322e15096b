// Package ir defines the mid-level intermediate representation the analyses
// and optimizations operate on.
//
// A function is a control-flow graph of basic blocks. Every access to the
// shared address space is an explicit statement (Load or Store) carrying an
// *Access record, and every synchronization construct (post, wait, lock,
// unlock, barrier) is likewise an explicit SyncOp access. Expressions are
// pure: they read only locals and constants, so shared reads are hoisted
// into Load statements by the builder. This gives the cycle-detection
// analyses a uniform view: the program is, per processor, a sequence of
// shared-memory and synchronization accesses glued together by invisible
// local computation — exactly the model of Shasha & Snir.
package ir

import (
	"fmt"
	"strconv"

	"repro/internal/sem"
	"repro/internal/source"
)

// LocalID identifies a function-local variable (or local array).
type LocalID int

// Value is a runtime or constant value (int or float).
type Value struct {
	T source.Type
	I int64
	F float64
}

// IntVal makes an int Value.
func IntVal(i int64) Value { return Value{T: source.TypeInt, I: i} }

// FloatVal makes a float Value.
func FloatVal(f float64) Value { return Value{T: source.TypeFloat, F: f} }

// BoolVal makes an int 0/1 Value from a bool.
func BoolVal(b bool) Value {
	if b {
		return IntVal(1)
	}
	return IntVal(0)
}

// IsTrue reports whether the value is a true condition (nonzero).
func (v Value) IsTrue() bool {
	if v.T == source.TypeFloat {
		return v.F != 0
	}
	return v.I != 0
}

// Float returns the value as a float64 (widening ints).
func (v Value) Float() float64 {
	if v.T == source.TypeFloat {
		return v.F
	}
	return float64(v.I)
}

// String renders the value.
func (v Value) String() string { return string(v.appendTo(nil)) }

func (v Value) appendTo(b []byte) []byte {
	if v.T == source.TypeFloat {
		return strconv.AppendFloat(b, v.F, 'g', -1, 64) // what %g prints
	}
	return strconv.AppendInt(b, v.I, 10)
}

// Local describes a function-local variable.
type Local struct {
	ID    LocalID
	Name  string // for diagnostics; unique within the function
	Type  source.Type
	Size  int64 // element count for arrays, 1 otherwise
	IsArr bool
}

// Expr is a pure IR expression over locals and constants.
type Expr interface {
	exprNode()
	Type() source.Type
}

// Const is a constant.
type Const struct{ Val Value }

// LocalRef reads a scalar local.
type LocalRef struct {
	ID LocalID
	T  source.Type
}

// ElemRef reads a local array element.
type ElemRef struct {
	Arr   LocalID
	Index Expr
	T     source.Type
}

// MyProc is the executing processor number.
type MyProc struct{}

// Procs is the machine size (present only when not folded at compile time).
type Procs struct{}

// Bin is a binary operation.
type Bin struct {
	Op   source.BinOp
	T    source.Type
	L, R Expr
}

// Un is a unary operation.
type Un struct {
	Op source.UnOp
	T  source.Type
	X  Expr
}

// BuiltinCall calls a pure builtin (itof, ftoi, fabs, fsqrt, imin, imax).
type BuiltinCall struct {
	Name string
	Args []Expr
	T    source.Type
}

func (*Const) exprNode()       {}
func (*LocalRef) exprNode()    {}
func (*ElemRef) exprNode()     {}
func (*MyProc) exprNode()      {}
func (*Procs) exprNode()       {}
func (*Bin) exprNode()         {}
func (*Un) exprNode()          {}
func (*BuiltinCall) exprNode() {}

// Type returns the expression's type.
func (e *Const) Type() source.Type { return e.Val.T }

// Type returns the expression's type.
func (e *LocalRef) Type() source.Type { return e.T }

// Type returns the expression's type.
func (e *ElemRef) Type() source.Type { return e.T }

// Type returns the expression's type.
func (e *MyProc) Type() source.Type { return source.TypeInt }

// Type returns the expression's type.
func (e *Procs) Type() source.Type { return source.TypeInt }

// Type returns the expression's type.
func (e *Bin) Type() source.Type { return e.T }

// Type returns the expression's type.
func (e *Un) Type() source.Type { return e.T }

// Type returns the expression's type.
func (e *BuiltinCall) Type() source.Type { return e.T }

// AccessKind classifies a shared-memory or synchronization access.
type AccessKind int

// Access kinds. Read/Write are data accesses; the rest are synchronization
// accesses, which the analyses treat as conflicting accesses to their
// synchronization object (section 5 of the paper).
const (
	AccRead AccessKind = iota
	AccWrite
	AccPost
	AccWait
	AccLock
	AccUnlock
	AccBarrier
)

// String names the access kind.
func (k AccessKind) String() string {
	switch k {
	case AccRead:
		return "read"
	case AccWrite:
		return "write"
	case AccPost:
		return "post"
	case AccWait:
		return "wait"
	case AccLock:
		return "lock"
	case AccUnlock:
		return "unlock"
	case AccBarrier:
		return "barrier"
	default:
		return "?"
	}
}

// IsSync reports whether the kind is a synchronization access.
func (k AccessKind) IsSync() bool { return k >= AccPost }

// IsData reports whether the kind is a data (read/write) access.
func (k AccessKind) IsData() bool { return k == AccRead || k == AccWrite }

// Access is one static shared access site. The analyses identify accesses
// by their integer ID; IDs are dense indexes into Fn.Accesses.
type Access struct {
	ID    int
	Kind  AccessKind
	Sym   *sem.Symbol // accessed symbol; nil for barriers
	Index Expr        // index expression for array symbols; nil otherwise
	Pos   source.Pos  // source position for diagnostics

	// Position in the CFG, set by the builder and stable thereafter.
	Blk *Block
	Idx int // statement index within Blk
}

// String renders the access for diagnostics, e.g. "a3:write X".
func (a *Access) String() string {
	name := ""
	if a.Sym != nil {
		name = " " + a.Sym.Name
		if a.Index != nil {
			name += "[...]"
		}
	}
	return fmt.Sprintf("a%d:%s%s", a.ID, a.Kind, name)
}

// Site renders the access with its source position for diagnostics that
// leave the compiler, e.g. "a3:write X at 4:9".
func (a *Access) Site() string {
	s := a.String()
	if a.Pos.IsValid() {
		s += " at " + a.Pos.String()
	}
	return s
}

// Stmt is an IR statement.
type Stmt interface{ stmtNode() }

// Assign stores a pure expression into a scalar local.
type Assign struct {
	Dst LocalID
	Src Expr
}

// SetElem stores into a local array element.
type SetElem struct {
	Arr   LocalID
	Index Expr
	Src   Expr
}

// Load is a blocking shared read into a local: dst = *acc.
type Load struct {
	Dst LocalID
	Acc *Access
}

// Store is a blocking shared write: *acc = src.
type Store struct {
	Acc *Access
	Src Expr
}

// SyncOp is a synchronization statement (post/wait/lock/unlock/barrier).
type SyncOp struct {
	Acc *Access
}

// PrintArg is one print argument: either a literal string or an expression.
type PrintArg struct {
	Str   string
	E     Expr // nil when Str is used
	IsStr bool
}

// Print emits values to the simulation's output log.
type Print struct {
	Args []PrintArg
}

func (*Assign) stmtNode()  {}
func (*SetElem) stmtNode() {}
func (*Load) stmtNode()    {}
func (*Store) stmtNode()   {}
func (*SyncOp) stmtNode()  {}
func (*Print) stmtNode()   {}

// AccessOf returns the access carried by s, or nil.
func AccessOf(s Stmt) *Access {
	switch s := s.(type) {
	case *Load:
		return s.Acc
	case *Store:
		return s.Acc
	case *SyncOp:
		return s.Acc
	}
	return nil
}

// Term is a basic-block terminator.
type Term interface{ termNode() }

// Jump transfers control unconditionally.
type Jump struct{ To *Block }

// Branch transfers control on a condition.
type Branch struct {
	Cond Expr
	Then *Block
	Else *Block
}

// Ret ends the function.
type Ret struct{}

func (*Jump) termNode()   {}
func (*Branch) termNode() {}
func (*Ret) termNode()    {}

// Block is a basic block.
type Block struct {
	ID    int
	Stmts []Stmt
	Term  Term
}

// Succs returns the block's successors.
func (b *Block) Succs() []*Block {
	switch t := b.Term.(type) {
	case *Jump:
		return []*Block{t.To}
	case *Branch:
		if t.Then == t.Else {
			return []*Block{t.Then}
		}
		return []*Block{t.Then, t.Else}
	default:
		return nil
	}
}

// IntRange is an inclusive-exclusive integer interval [Lo, Hi).
type IntRange struct {
	Lo, Hi int64
}

// Fn is a compiled function body (after inlining, the whole SPMD program).
type Fn struct {
	Name     string
	Blocks   []*Block // Blocks[0] is the entry
	Locals   []*Local
	Accesses []*Access
	// Ranges records value ranges for counted-loop induction variables
	// whose bounds folded to constants. Used by array index disambiguation.
	Ranges map[LocalID]IntRange
	Info   *sem.Info
	Procs  int // compile-time machine size; 0 if unknown
}

// Local returns the local with the given ID.
func (f *Fn) Local(id LocalID) *Local { return f.Locals[id] }

// AccessByID returns the access with the given dense id, or nil when the
// id is out of range — notably -1, the synthetic id dynamic traces use for
// emitted sync_ctr waits, which have no source access.
func (f *Fn) AccessByID(id int) *Access {
	if id < 0 || id >= len(f.Accesses) {
		return nil
	}
	return f.Accesses[id]
}

// NewLocal appends a fresh local and returns it.
func (f *Fn) NewLocal(name string, t source.Type, size int64, isArr bool) *Local {
	l := &Local{ID: LocalID(len(f.Locals)), Name: name, Type: t, Size: size, IsArr: isArr}
	f.Locals = append(f.Locals, l)
	return l
}

// NewBlock appends a fresh empty block and returns it.
func (f *Fn) NewBlock() *Block {
	b := &Block{ID: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// NewAccess appends a fresh access record and returns it.
func (f *Fn) NewAccess(kind AccessKind, sym *sem.Symbol, index Expr, pos source.Pos) *Access {
	a := &Access{ID: len(f.Accesses), Kind: kind, Sym: sym, Index: index, Pos: pos}
	f.Accesses = append(f.Accesses, a)
	return a
}

// Preds computes the predecessor lists of all blocks.
func (f *Fn) Preds() [][]*Block {
	preds := make([][]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			preds[s.ID] = append(preds[s.ID], b)
		}
	}
	return preds
}
