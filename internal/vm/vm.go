// Package vm compiles split-phase target programs to a dense bytecode and
// executes it with an explicit value stack — the simulator's default
// block-execution engine (DESIGN.md §12).
//
// The AST walker, internal/interp's differential reference for this VM
// (kept in its tests), re-dispatches every statement through
// interface type switches and re-evaluates operand trees node by node. The
// VM flattens each basic block once: expressions become postfix op
// sequences over an interned constant pool, statements become single ops
// whose operands are dense indices (locals, accesses, counters), and
// control flow becomes explicit jumps between program counters. The
// Machine executes the flat []Op with no per-statement allocation in
// steady state; everything that touches the simulated machine — issuing
// split-phase operations, synchronization, time accounting, taps — is
// routed through the Host interface, implemented by the simulator, so the
// event-loop semantics are shared verbatim with the walker.
//
// Two invariants keep the engines byte-identical (the differential suite
// asserts this over the app kernels and progen grids):
//
//   - A statement begins and ends with an empty value stack, and the only
//     ops that yield to the event loop (OpSyncCtr, OpSync*) pop their
//     operands before yielding. A yielded sync_ctr is never re-executed:
//     the host finishes the wait before the processor's next Resume, which
//     starts at the op after it. A yielded OpSync* saves its evaluated
//     index in the frame and re-executes on re-entry — the walker's
//     two-phase p.waiting protocol — without re-running operand code.
//   - ALU charges accumulate in a counter and ride on the next host call
//     that reads the processor clock, which applies them first as
//     individual cfg.ALUCost additions, so the floating-point addition
//     sequence applied to p.time is exactly the walker's.
package vm

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/source"
)

// OpCode is a bytecode operation.
type OpCode uint8

// Opcodes. Expression ops push onto the value stack; statement ops consume
// it. The *0 variants are specializations for scalar (index-free) accesses
// so the hot path skips the index pop entirely.
const (
	// Expressions.
	OpConst   OpCode = iota // push consts[A]
	OpLocal                 // push scalars[A]
	OpElem                  // pop idx; push local array A's element
	OpMyProc                // push the executing processor number
	OpProcs                 // push the machine size
	OpBin                   // pop r, l; push l <binop A> r
	OpUn                    // pop x; push <unop A> x
	OpBuiltin               // pop B args; push builtin A's result

	// Local statements.
	OpAssign  // pop v; scalars[A] = v; charge ALU
	OpSetIdx  // peek idx; bounds-check local array A (write follows)
	OpSetElem // pop v, idx; local array A element idx = v; charge ALU
	OpPrint   // pop print spec A's expression values; emit line; charge ALU

	// Control flow.
	OpJump   // pc = A; enter block
	OpBranch // pop cond; charge ALU; pc = cond ? A : B; enter block
	OpRet    // processor done

	// Split-phase and synchronization, host-mediated. A = access id
	// (counter id for OpSyncCtr), B = destination local (gets), C =
	// synchronizing counter.
	OpGet
	OpGet0
	OpPut
	OpPut0
	OpStore
	OpStore0
	OpSyncCtr
	OpSync
	OpSync0

	// Fused superinstructions. The compiler's peephole pass combines an
	// operand-producing op with its single consumer when both are adjacent
	// in the same statement, collapsing the dominant three-dispatch pattern
	// (push, push, combine) of stencil index arithmetic into one dispatch.
	// Semantics are exactly the unfused sequences'; only the number of
	// switch iterations changes.
	OpBinLL   // push scalars[B] <binop A> scalars[C]
	OpBinLC   // push scalars[B] <binop A> consts[C]
	OpBinCL   // push consts[B] <binop A> scalars[C]
	OpBinTL   // v := pop; push v <binop A> scalars[B]
	OpBinTC   // v := pop; push v <binop A> consts[B]
	OpMove    // scalars[A] = scalars[B]; charge ALU
	OpLoadK   // scalars[A] = consts[B]; charge ALU
	OpElemL   // push local array A's element at index scalars[B]
	OpSetIdxL // push scalars[B], bounds-checked against local array A
	OpBinMC   // push MYPROC <binop A> consts[B]
	OpBinML   // push MYPROC <binop A> scalars[B]
	OpIncLC   // scalars[A] = scalars[A] + consts[B]; charge ALU

	// Chained pairs: two binary operations in one dispatch. X and Y hold
	// the operators (op1, op2); the suffix names the shapes: M = MYPROC,
	// C = constant, L = local, T = value on the stack.
	OpBin2MCL // push (MYPROC <op1> consts[B]) <op2> scalars[C]
	OpBin2MCC // push (MYPROC <op1> consts[B]) <op2> consts[C]
	OpBin2TCL // v := pop; push (v <op1> consts[B]) <op2> scalars[C]
	OpBin2TCC // v := pop; push (v <op1> consts[B]) <op2> consts[C]
	OpBin2TLL // v := pop; push (v <op1> scalars[B]) <op2> scalars[C]
	OpBin2TLC // v := pop; push (v <op1> scalars[B]) <op2> consts[C]
	OpBin2LCL // push (scalars[A] <op1> consts[B]) <op2> scalars[C]
	OpBin2LCC // push (scalars[A] <op1> consts[B]) <op2> consts[C]

	// Fused statements and terminators, each one dispatch for the hot
	// pair or triple the unfused code spent two or three on.
	OpBrLC      // branch on scalars[C] <X> consts[Y]: OpBinLC + OpBranch
	OpIncJump   // scalars[A] += consts[B]; pc = C: OpIncLC + OpJump
	OpSetElemX  // pop idx; local array A element idx = scalars[B] (checked)
	OpSetElemLL // local array A element scalars[B] = scalars[C] (checked)
	OpGetTC     // v := pop; OpGet at element v <X> consts[Y]: OpBinTC + OpGet
)

// String names the opcode as printed by the disassembler.
func (c OpCode) String() string {
	if int(c) < len(opNames) {
		return opNames[c]
	}
	return fmt.Sprintf("OpCode(%d)", int(c))
}

var opNames = [...]string{
	OpConst: "const", OpLocal: "local", OpElem: "elem", OpMyProc: "myproc",
	OpProcs: "procs", OpBin: "bin", OpUn: "un", OpBuiltin: "builtin",
	OpAssign: "assign", OpSetIdx: "setidx", OpSetElem: "setelem", OpPrint: "print",
	OpJump: "jump", OpBranch: "branch", OpRet: "ret",
	OpGet: "get", OpGet0: "get0", OpPut: "put", OpPut0: "put0",
	OpStore: "store", OpStore0: "store0", OpSyncCtr: "sync_ctr",
	OpSync: "sync", OpSync0: "sync0",
	OpBinLL: "bin.ll", OpBinLC: "bin.lc", OpBinCL: "bin.cl",
	OpBinTL: "bin.tl", OpBinTC: "bin.tc", OpMove: "move", OpLoadK: "loadk",
	OpElemL: "elem.l", OpSetIdxL: "setidx.l",
	OpBinMC: "bin.mc", OpBinML: "bin.ml", OpIncLC: "inc.lc",
	OpBin2MCL: "bin2.mcl", OpBin2MCC: "bin2.mcc", OpBin2TCL: "bin2.tcl",
	OpBin2TCC: "bin2.tcc", OpBin2TLL: "bin2.tll", OpBin2TLC: "bin2.tlc",
	OpBin2LCL: "bin2.lcl", OpBin2LCC: "bin2.lcc",
	OpBrLC: "br.lc", OpIncJump: "inc.jump", OpSetElemX: "setelem.x", OpSetElemLL: "setelem.ll",
	OpGetTC: "get.tc",
}

// evalBin is ir.EvalBin with the all-integer add/sub/mul/compare cases —
// nearly every index computation in the stencil kernels — peeled off ahead
// of the generic dispatch. The integer results are identical by
// construction (ir.EvalBin computes the same expressions for non-float
// operands), so this is purely a shorter path, not a semantic variant.
func evalBin(op source.BinOp, l, r ir.Value) (ir.Value, bool) {
	if l.T != source.TypeFloat && r.T != source.TypeFloat {
		switch op {
		case source.OpAdd:
			return ir.IntVal(l.I + r.I), true
		case source.OpSub:
			return ir.IntVal(l.I - r.I), true
		case source.OpMul:
			return ir.IntVal(l.I * r.I), true
		case source.OpMod:
			if r.I == 0 {
				return ir.Value{}, false
			}
			return ir.IntVal(l.I % r.I), true
		case source.OpLt:
			return ir.BoolVal(l.I < r.I), true
		case source.OpLe:
			return ir.BoolVal(l.I <= r.I), true
		case source.OpEq:
			return ir.BoolVal(l.I == r.I), true
		}
	} else if l.T == source.TypeFloat && r.T == source.TypeFloat {
		switch op {
		case source.OpAdd:
			return ir.FloatVal(l.F + r.F), true
		case source.OpSub:
			return ir.FloatVal(l.F - r.F), true
		case source.OpMul:
			return ir.FloatVal(l.F * r.F), true
		}
	}
	return ir.EvalBin(op, l, r)
}

// incInt is an induction step's integer case: scalars[A] + consts[B] when
// neither is a float (evalBin's first case), with fast false otherwise.
func incInt(op *Op, scalars, consts []ir.Value) (v ir.Value, fast bool) {
	l, r := &scalars[op.A], &consts[op.B]
	return ir.IntVal(l.I + r.I), l.T != source.TypeFloat && r.T != source.TypeFloat
}

// ltLC is br.lc's integer less-than, a loop's test: scalars[C] < consts[Y]
// when X is < and neither is a float, with fast false otherwise.
func ltLC(op *Op, scalars, consts []ir.Value) (taken, fast bool) {
	l, r := &scalars[op.C], &consts[op.Y]
	return l.I < r.I, op.X == uint8(source.OpLt) && l.T != source.TypeFloat && r.T != source.TypeFloat
}

// brLC decides br.lc op, scalars[C] <X> consts[Y], where ltLC cannot;
// ok is false on a division by zero.
func brLC(op *Op, scalars, consts []ir.Value) (taken, ok bool) {
	v, ok := evalBin(source.BinOp(op.X), scalars[op.C], consts[op.Y])
	return v.IsTrue(), ok
}

// Op is one bytecode instruction: an opcode plus up to three dense operand
// indices (constant pool, local, access, counter, or jump target). X and Y
// sit in what would be the struct's padding, so an Op is 16 bytes: they
// carry the operators of a two-operator op, and the operator and constant
// of br.lc and get.tc.
type Op struct {
	Code    OpCode
	X, Y    uint8
	A, B, C int32
}

// Host mediates every effect the bytecode has outside its own frame. The
// simulator implements it; the methods mirror the walker's statement
// bodies minus operand evaluation. Methods returning bool report whether
// the processor may continue executing: false means it yielded to the
// event loop or the run failed (the host records the error either way).
//
// The access and sync methods read the processor clock, so each takes alu,
// the ALU charges accumulated since the last host call, and applies them
// first, as alu individual cfg.ALUCost additions (FP-identical to the
// walker, which charges each statement as it runs).
type Host interface {
	// ChargeALUN applies n accumulated ALU charges the same way, where no
	// access follows to carry them: at ret, and before a traced block
	// entry.
	ChargeALUN(p, n int)
	// EnterBlock reports that processor p entered target block blk.
	EnterBlock(p, blk int)
	// Print appends one rendered output line to p's print log.
	Print(p int, line string)
	// Fail records a runtime error for processor p.
	Fail(p int, format string, args ...any)
	// Get issues a split-phase read of access acc at element idx into dst,
	// tracked by counter ctr.
	Get(p, alu, acc int, idx int64, dst ir.LocalID, ctr int) bool
	// Put issues a split-phase acknowledged write of v.
	Put(p, alu, acc int, idx int64, v ir.Value, ctr int) bool
	// Store issues a one-way unacknowledged write of v.
	Store(p, alu, acc int, idx int64, v ir.Value) bool
	// SyncCtr waits for counter ctr to drain. False means p yielded, and the
	// host finishes the wait before p's next Resume, which continues after
	// the op: a yielded sync_ctr is never dispatched again.
	SyncCtr(p, alu, ctr int) bool
	// Sync executes a post/wait/lock/unlock/barrier access (two-phase for
	// the blocking kinds; false = yielded, and the next Resume calls Sync
	// again with the saved index).
	Sync(p, alu, acc int, idx int64) bool
}

// Frame is one processor's execution state. Scalars and Arrays alias the
// simulator's environment storage, so value landings dispatched by the
// event loop (a get's reply writing its destination local) are visible to
// the bytecode without copying.
type Frame struct {
	PC      int32
	Done    bool
	Pending bool  // a blocking op yielded; PendIdx holds its evaluated index
	PendIdx int64 // saved sync index across the yield
	my      ir.Value
	Scalars []ir.Value
	Arrays  [][]ir.Value
}

// Machine executes a compiled Program for all processors of one run. One
// value stack is shared by every frame: yields only happen between
// statements, where the stack is empty.
type Machine struct {
	prog   *Program
	host   Host
	frames []Frame
	stack  []ir.Value
	procsV ir.Value
	trace  bool
	ops    int // ops dispatched since the last Reset
}

// NewMachine builds an executor for procs processors. Frames must be bound
// to their storage with SetFrame before the first Resume.
func NewMachine(prog *Program, host Host, procs int) *Machine {
	n := prog.MaxStack
	if n < 4 {
		n = 4
	}
	m := &Machine{
		prog:   prog,
		host:   host,
		frames: make([]Frame, procs),
		stack:  make([]ir.Value, n),
		procsV: ir.IntVal(int64(procs)),
	}
	for p := range m.frames {
		m.frames[p].my = ir.IntVal(int64(p))
	}
	return m
}

// SetFrame binds processor p's frame to its local storage (shared with the
// simulator's environment).
func (m *Machine) SetFrame(p int, scalars []ir.Value, arrays [][]ir.Value) {
	m.frames[p].Scalars = scalars
	m.frames[p].Arrays = arrays
}

// Reset rewinds every processor to the program's entry, as NewMachine left
// it, and zeroes the dispatch count. Frame bindings stay; the storage
// behind them is the host's to reset.
func (m *Machine) Reset() {
	for p := range m.frames {
		fr := &m.frames[p]
		fr.PC, fr.Done, fr.Pending, fr.PendIdx = 0, false, false, 0
	}
	m.ops = 0
}

// Dispatched reports how many ops the machine has dispatched since the
// last Reset — the VM's work count, exact on any host.
func (m *Machine) Dispatched() int { return m.ops }

// SetTrace enables the per-block EnterBlock host callback. When off (no
// tap is attached), jumps skip the host call entirely and ALU charges
// accumulate across block boundaries; the deferred charges are applied in
// the same order before the next clock-reading host call, so processor
// clocks are bit-identical either way — only the tap's Block stream needs
// the eager callback.
func (m *Machine) SetTrace(on bool) { m.trace = on }

// Done reports whether processor p has executed its ret.
func (m *Machine) Done(p int) bool { return m.frames[p].Done }

// Where returns the block and statement index processor p is stopped at,
// for diagnostics (the deadlock report).
func (m *Machine) Where(p int) (blk, stmt int) {
	pc := m.frames[p].PC
	return int(m.prog.PcBlock[pc]), int(m.prog.PcStmt[pc])
}

// Resume runs processor p until it yields, fails, or rets — the bytecode
// counterpart of the walker's resume loop.
func (m *Machine) Resume(p int) {
	fr := &m.frames[p]
	if fr.Done {
		return
	}
	m.ops += m.run(p, fr)
}

// run is Resume's dispatch loop. It returns the number of ops it
// dispatched, a count it keeps in a register.
func (m *Machine) run(p int, fr *Frame) int {
	var (
		code    = m.prog.Code
		consts  = m.prog.Consts
		stack   = m.stack
		scalars = fr.Scalars
		arrays  = fr.Arrays
		host    = m.host
		trace   = m.trace
		pc      = int(fr.PC)
		sp      = 0
		alu     = 0
		n       = 0
	)
	for {
		n++
		op := &code[pc]
		switch op.Code {
		case OpConst:
			stack[sp] = consts[op.A]
			sp++
			pc++
		case OpLocal:
			stack[sp] = scalars[op.A]
			sp++
			pc++
		case OpElem:
			v := stack[sp-1]
			if v.T == source.TypeFloat {
				host.Fail(p, "index is not an integer")
				return n
			}
			arr := arrays[op.A]
			if v.I < 0 || v.I >= int64(len(arr)) {
				host.Fail(p, "local array index %d out of range [0,%d)", v.I, len(arr))
				return n
			}
			stack[sp-1] = arr[v.I]
			pc++
		case OpMyProc:
			stack[sp] = fr.my
			sp++
			pc++
		case OpProcs:
			stack[sp] = m.procsV
			sp++
			pc++
		case OpBin:
			v, ok := evalBin(source.BinOp(op.A), stack[sp-2], stack[sp-1])
			if !ok {
				host.Fail(p, "division by zero")
				return n
			}
			sp--
			stack[sp-1] = v
			pc++
		case OpUn:
			v, ok := ir.EvalUn(source.UnOp(op.A), stack[sp-1])
			if !ok {
				host.Fail(p, "bad unary operation")
				return n
			}
			stack[sp-1] = v
			pc++
		case OpBuiltin:
			n := int(op.B)
			args := stack[sp-n : sp]
			name := m.prog.Builtins[op.A]
			if name == "fsqrt" && args[0].Float() < 0 {
				host.Fail(p, "fsqrt of negative value %g", args[0].Float())
				return n
			}
			v, ok := ir.EvalBuiltin(name, args)
			if !ok {
				host.Fail(p, "unknown builtin %s", name)
				return n
			}
			sp -= n
			stack[sp] = v
			sp++
			pc++
		case OpAssign:
			sp--
			scalars[op.A] = stack[sp]
			alu++
			pc++
		case OpSetIdx:
			v := stack[sp-1]
			if v.T == source.TypeFloat {
				host.Fail(p, "index is not an integer")
				return n
			}
			arr := arrays[op.A]
			if v.I < 0 || v.I >= int64(len(arr)) {
				host.Fail(p, "local array index %d out of range [0,%d)", v.I, len(arr))
				return n
			}
			pc++
		case OpSetElem:
			sp -= 2
			arrays[op.A][stack[sp].I] = stack[sp+1]
			alu++
			pc++
		case OpPrint:
			spec := &m.prog.Prints[op.A]
			base := sp - int(spec.NExpr)
			line := fmt.Sprintf("[p%d]", p)
			k := base
			for i := range spec.Args {
				if a := &spec.Args[i]; a.IsStr {
					line += " " + a.Str
				} else {
					line += " " + stack[k].String()
					k++
				}
			}
			sp = base
			host.Print(p, line)
			alu++
			pc++
		case OpJump:
			pc = int(op.A)
			if trace {
				if alu != 0 {
					host.ChargeALUN(p, alu)
					alu = 0
				}
				host.EnterBlock(p, int(m.prog.PcBlock[pc]))
			}
		case OpBranch:
			sp--
			alu++
			if trace {
				host.ChargeALUN(p, alu)
				alu = 0
			}
			if stack[sp].IsTrue() {
				pc = int(op.A)
			} else {
				pc = int(op.B)
			}
			if trace {
				host.EnterBlock(p, int(m.prog.PcBlock[pc]))
			}
		case OpRet:
			if alu != 0 {
				host.ChargeALUN(p, alu)
			}
			fr.Done = true
			fr.PC = int32(pc)
			return n
		case OpGet, OpGet0:
			var idx int64
			if op.Code == OpGet {
				sp--
				v := stack[sp]
				if v.T == source.TypeFloat {
					host.Fail(p, "index is not an integer")
					return n
				}
				idx = v.I
			}
			if !host.Get(p, alu, int(op.A), idx, ir.LocalID(op.B), int(op.C)) {
				fr.PC = int32(pc)
				return n
			}
			alu = 0
			pc++
			// A get's value is often waited for at once: cross for the
			// sync_ctr here. It counts as dispatched.
			if next := &code[pc]; next.Code == OpSyncCtr {
				n++
				if !host.SyncCtr(p, 0, int(next.A)) {
					fr.PC = int32(pc + 1)
					return n
				}
				pc++
			}
		case OpPut, OpPut0:
			sp--
			v := stack[sp]
			var idx int64
			if op.Code == OpPut {
				sp--
				iv := stack[sp]
				if iv.T == source.TypeFloat {
					host.Fail(p, "index is not an integer")
					return n
				}
				idx = iv.I
			}
			if !host.Put(p, alu, int(op.A), idx, v, int(op.C)) {
				fr.PC = int32(pc)
				return n
			}
			alu = 0
			pc++
		case OpStore, OpStore0:
			sp--
			v := stack[sp]
			var idx int64
			if op.Code == OpStore {
				sp--
				iv := stack[sp]
				if iv.T == source.TypeFloat {
					host.Fail(p, "index is not an integer")
					return n
				}
				idx = iv.I
			}
			if !host.Store(p, alu, int(op.A), idx, v) {
				fr.PC = int32(pc)
				return n
			}
			alu = 0
			pc++
		case OpSyncCtr:
			// The host finishes a yielded wait itself before the next
			// Resume, so the frame saves the pc after the op.
			if !host.SyncCtr(p, alu, int(op.A)) {
				fr.PC = int32(pc + 1)
				return n
			}
			alu = 0
			pc++
		case OpSync, OpSync0:
			var idx int64
			if fr.Pending {
				idx = fr.PendIdx
			} else if op.Code == OpSync {
				sp--
				v := stack[sp]
				if v.T == source.TypeFloat {
					host.Fail(p, "index is not an integer")
					return n
				}
				idx = v.I
			}
			if !host.Sync(p, alu, int(op.A), idx) {
				fr.Pending = true
				fr.PendIdx = idx
				fr.PC = int32(pc)
				return n
			}
			fr.Pending = false
			alu = 0
			pc++
		case OpBinLL:
			v, ok := evalBin(source.BinOp(op.A), scalars[op.B], scalars[op.C])
			if !ok {
				host.Fail(p, "division by zero")
				return n
			}
			stack[sp] = v
			sp++
			pc++
		case OpBinLC:
			v, ok := evalBin(source.BinOp(op.A), scalars[op.B], consts[op.C])
			if !ok {
				host.Fail(p, "division by zero")
				return n
			}
			// An element index feeding a setelem.x: store here, without
			// the stack. It counts as dispatched.
			if next := &code[pc+1]; next.Code == OpSetElemX {
				n++
				if v.T == source.TypeFloat {
					host.Fail(p, "index is not an integer")
					return n
				}
				arr := arrays[next.A]
				if v.I < 0 || v.I >= int64(len(arr)) {
					host.Fail(p, "local array index %d out of range [0,%d)", v.I, len(arr))
					return n
				}
				arr[v.I] = scalars[next.B]
				alu++
				pc += 2
				break
			}
			stack[sp] = v
			sp++
			pc++
		case OpBinCL:
			v, ok := evalBin(source.BinOp(op.A), consts[op.B], scalars[op.C])
			if !ok {
				host.Fail(p, "division by zero")
				return n
			}
			stack[sp] = v
			sp++
			pc++
		case OpBinTL:
			v, ok := evalBin(source.BinOp(op.A), stack[sp-1], scalars[op.B])
			if !ok {
				host.Fail(p, "division by zero")
				return n
			}
			stack[sp-1] = v
			pc++
		case OpBinTC:
			v, ok := evalBin(source.BinOp(op.A), stack[sp-1], consts[op.B])
			if !ok {
				host.Fail(p, "division by zero")
				return n
			}
			stack[sp-1] = v
			pc++
		case OpMove:
			scalars[op.A] = scalars[op.B]
			alu++
			pc++
		case OpLoadK:
			scalars[op.A] = consts[op.B]
			alu++
			pc++
		case OpElemL:
			v := scalars[op.B]
			if v.T == source.TypeFloat {
				host.Fail(p, "index is not an integer")
				return n
			}
			arr := arrays[op.A]
			if v.I < 0 || v.I >= int64(len(arr)) {
				host.Fail(p, "local array index %d out of range [0,%d)", v.I, len(arr))
				return n
			}
			stack[sp] = arr[v.I]
			sp++
			pc++
		case OpBinMC:
			v, ok := evalBin(source.BinOp(op.A), fr.my, consts[op.B])
			if !ok {
				host.Fail(p, "division by zero")
				return n
			}
			stack[sp] = v
			sp++
			pc++
		case OpBinML:
			v, ok := evalBin(source.BinOp(op.A), fr.my, scalars[op.B])
			if !ok {
				host.Fail(p, "division by zero")
				return n
			}
			stack[sp] = v
			sp++
			pc++
		case OpIncLC:
			v, _ := evalBin(source.OpAdd, scalars[op.A], consts[op.B])
			scalars[op.A] = v
			alu++
			pc++
		case OpBin2MCL:
			v, ok := evalBin(source.BinOp(op.X), fr.my, consts[op.B])
			if ok {
				v, ok = evalBin(source.BinOp(op.Y), v, scalars[op.C])
			}
			if !ok {
				host.Fail(p, "division by zero")
				return n
			}
			stack[sp] = v
			sp++
			pc++
		case OpBin2MCC:
			v, ok := evalBin(source.BinOp(op.X), fr.my, consts[op.B])
			if ok {
				v, ok = evalBin(source.BinOp(op.Y), v, consts[op.C])
			}
			if !ok {
				host.Fail(p, "division by zero")
				return n
			}
			stack[sp] = v
			sp++
			pc++
		case OpBin2TCL:
			v, ok := evalBin(source.BinOp(op.X), stack[sp-1], consts[op.B])
			if ok {
				v, ok = evalBin(source.BinOp(op.Y), v, scalars[op.C])
			}
			if !ok {
				host.Fail(p, "division by zero")
				return n
			}
			stack[sp-1] = v
			pc++
		case OpBin2TCC:
			v, ok := evalBin(source.BinOp(op.X), stack[sp-1], consts[op.B])
			if ok {
				v, ok = evalBin(source.BinOp(op.Y), v, consts[op.C])
			}
			if !ok {
				host.Fail(p, "division by zero")
				return n
			}
			stack[sp-1] = v
			pc++
		case OpBin2TLL:
			v, ok := evalBin(source.BinOp(op.X), stack[sp-1], scalars[op.B])
			if ok {
				v, ok = evalBin(source.BinOp(op.Y), v, scalars[op.C])
			}
			if !ok {
				host.Fail(p, "division by zero")
				return n
			}
			stack[sp-1] = v
			pc++
		case OpBin2TLC:
			v, ok := evalBin(source.BinOp(op.X), stack[sp-1], scalars[op.B])
			if ok {
				v, ok = evalBin(source.BinOp(op.Y), v, consts[op.C])
			}
			if !ok {
				host.Fail(p, "division by zero")
				return n
			}
			stack[sp-1] = v
			pc++
		case OpBin2LCL:
			v, ok := evalBin(source.BinOp(op.X), scalars[op.A], consts[op.B])
			if ok {
				v, ok = evalBin(source.BinOp(op.Y), v, scalars[op.C])
			}
			if !ok {
				host.Fail(p, "division by zero")
				return n
			}
			stack[sp] = v
			sp++
			pc++
		case OpBin2LCC:
			v, ok := evalBin(source.BinOp(op.X), scalars[op.A], consts[op.B])
			if ok {
				v, ok = evalBin(source.BinOp(op.Y), v, consts[op.C])
			}
			if !ok {
				host.Fail(p, "division by zero")
				return n
			}
			stack[sp] = v
			sp++
			pc++
		case OpBrLC:
			taken, fast := ltLC(op, scalars, consts)
			if !fast {
				var ok bool
				if taken, ok = brLC(op, scalars, consts); !ok {
					host.Fail(p, "division by zero")
					return n
				}
			}
			alu++
			if trace {
				host.ChargeALUN(p, alu)
				alu = 0
			}
			if taken {
				pc = int(op.A)
			} else {
				pc = int(op.B)
			}
			if trace {
				host.EnterBlock(p, int(m.prog.PcBlock[pc]))
			}
		case OpIncJump:
			if v, fast := incInt(op, scalars, consts); fast {
				scalars[op.A] = v
			} else {
				scalars[op.A], _ = evalBin(source.OpAdd, scalars[op.A], consts[op.B])
			}
			alu++
			pc = int(op.C)
			if trace {
				host.ChargeALUN(p, alu)
				alu = 0
				host.EnterBlock(p, int(m.prog.PcBlock[pc]))
				break
			}
			// A loop's latch jumps to its test: dispatch that br.lc here,
			// one trip round the switch fewer. It counts as dispatched.
			if next := &code[pc]; next.Code == OpBrLC {
				n++
				taken, fast := ltLC(next, scalars, consts)
				if !fast {
					var ok bool
					if taken, ok = brLC(next, scalars, consts); !ok {
						host.Fail(p, "division by zero")
						return n
					}
				}
				alu++
				if taken {
					pc = int(next.A)
				} else {
					pc = int(next.B)
				}
			}
		case OpSetElemX:
			sp--
			v := stack[sp]
			if v.T == source.TypeFloat {
				host.Fail(p, "index is not an integer")
				return n
			}
			arr := arrays[op.A]
			if v.I < 0 || v.I >= int64(len(arr)) {
				host.Fail(p, "local array index %d out of range [0,%d)", v.I, len(arr))
				return n
			}
			arr[v.I] = scalars[op.B]
			alu++
			pc++
		case OpSetElemLL:
			v := scalars[op.B]
			if v.T == source.TypeFloat {
				host.Fail(p, "index is not an integer")
				return n
			}
			arr := arrays[op.A]
			if v.I < 0 || v.I >= int64(len(arr)) {
				host.Fail(p, "local array index %d out of range [0,%d)", v.I, len(arr))
				return n
			}
			arr[v.I] = scalars[op.C]
			alu++
			pc++
		case OpGetTC:
			sp--
			v, ok := evalBin(source.BinOp(op.X), stack[sp], consts[op.Y])
			if !ok {
				host.Fail(p, "division by zero")
				return n
			}
			if v.T == source.TypeFloat {
				host.Fail(p, "index is not an integer")
				return n
			}
			if !host.Get(p, alu, int(op.A), v.I, ir.LocalID(op.B), int(op.C)) {
				fr.PC = int32(pc)
				return n
			}
			alu = 0
			pc++
			// A get's value is often waited for at once: cross for the
			// sync_ctr here. It counts as dispatched.
			if next := &code[pc]; next.Code == OpSyncCtr {
				n++
				if !host.SyncCtr(p, 0, int(next.A)) {
					fr.PC = int32(pc + 1)
					return n
				}
				pc++
			}
		case OpSetIdxL:
			v := scalars[op.B]
			if v.T == source.TypeFloat {
				host.Fail(p, "index is not an integer")
				return n
			}
			arr := arrays[op.A]
			if v.I < 0 || v.I >= int64(len(arr)) {
				host.Fail(p, "local array index %d out of range [0,%d)", v.I, len(arr))
				return n
			}
			stack[sp] = v
			sp++
			pc++
		default:
			host.Fail(p, "vm: unknown opcode %d at pc %d", op.Code, pc)
			return n
		}
	}
}
