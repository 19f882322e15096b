// Package interp executes compiled MiniSplit programs.
//
// Two executors are provided:
//
//   - Run: a discrete-event *weak-memory* executor for split-phase target
//     programs on a simulated distributed-memory machine (package machine).
//     Shared-memory reads and writes take effect at their network arrival
//     times, so in-flight operations genuinely reorder — exactly the
//     behavior the delay set must tame. Per-processor cycle counts fall
//     out of the same event clock, which is what the benchmark harness
//     reports.
//
//   - RunSC: a blocking *sequentially consistent* reference executor over
//     the mid-level IR, used as the oracle: every shared access happens
//     atomically at a global interleaving point, each step's processor
//     drawn uniformly from the unblocked ones by the seeded schedRNG. It
//     walks the same transition relation (mcState.step) that EnumerateSCStats
//     explores exhaustively, so property tests can check weak-memory
//     outcomes against the exact SC outcome set.
package interp

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/ir"
	"repro/internal/sem"
	"repro/internal/source"
)

// RuntimeError is an error raised by program execution.
type RuntimeError struct {
	Proc int
	Msg  string
}

// Error implements the error interface.
func (e *RuntimeError) Error() string {
	return fmt.Sprintf("proc %d: runtime error: %s", e.Proc, e.Msg)
}

// env holds one processor's local variables. Arrays are indexed by
// LocalID like scalars (nil for non-array locals), so the VM engine's
// frames can alias both slices directly.
type env struct {
	scalars []ir.Value
	arrays  [][]ir.Value
}

func newEnv(fn *ir.Fn) *env {
	// Scalars and every local array share one backing slice (scalars
	// first, then each array in LocalID order): one allocation per
	// processor instead of one per array.
	total := int64(len(fn.Locals))
	for _, l := range fn.Locals {
		if l.IsArr {
			total += l.Size
		}
	}
	slab := make([]ir.Value, total)
	e := &env{
		scalars: slab[:len(fn.Locals):len(fn.Locals)],
		arrays:  make([][]ir.Value, len(fn.Locals)),
	}
	next := int64(len(fn.Locals))
	for _, l := range fn.Locals {
		if l.IsArr {
			e.arrays[l.ID] = slab[next : next+l.Size : next+l.Size]
			next += l.Size
		}
	}
	e.reset(fn)
	return e
}

// reset gives every local of fn its initial value. Zero values carry the
// declared type for clean printing.
func (e *env) reset(fn *ir.Fn) {
	for _, l := range fn.Locals {
		zero := ir.IntVal(0)
		if l.Type == source.TypeFloat {
			zero = ir.FloatVal(0)
		}
		if l.IsArr {
			arr := e.arrays[l.ID]
			for i := range arr {
				arr[i] = zero
			}
		} else {
			e.scalars[l.ID] = zero
		}
	}
}

// evalCtx supplies the processor identity for MYPROC/PROCS.
type evalCtx struct {
	proc  int
	procs int
}

// eval evaluates a pure IR expression.
func eval(e ir.Expr, en *env, ctx evalCtx) (ir.Value, error) {
	switch e := e.(type) {
	case *ir.Const:
		return e.Val, nil
	case *ir.LocalRef:
		return en.scalars[e.ID], nil
	case *ir.ElemRef:
		idx, err := evalInt(e.Index, en, ctx)
		if err != nil {
			return ir.Value{}, err
		}
		arr := en.arrays[e.Arr]
		if idx < 0 || idx >= int64(len(arr)) {
			return ir.Value{}, fmt.Errorf("local array index %d out of range [0,%d)", idx, len(arr))
		}
		return arr[idx], nil
	case *ir.MyProc:
		return ir.IntVal(int64(ctx.proc)), nil
	case *ir.Procs:
		return ir.IntVal(int64(ctx.procs)), nil
	case *ir.Bin:
		l, err := eval(e.L, en, ctx)
		if err != nil {
			return ir.Value{}, err
		}
		r, err := eval(e.R, en, ctx)
		if err != nil {
			return ir.Value{}, err
		}
		v, ok := ir.EvalBin(e.Op, l, r)
		if !ok {
			return ir.Value{}, fmt.Errorf("division by zero")
		}
		return v, nil
	case *ir.Un:
		x, err := eval(e.X, en, ctx)
		if err != nil {
			return ir.Value{}, err
		}
		v, ok := ir.EvalUn(e.Op, x)
		if !ok {
			return ir.Value{}, fmt.Errorf("bad unary operation")
		}
		return v, nil
	case *ir.BuiltinCall:
		args := make([]ir.Value, len(e.Args))
		for i, a := range e.Args {
			v, err := eval(a, en, ctx)
			if err != nil {
				return ir.Value{}, err
			}
			args[i] = v
		}
		if e.Name == "fsqrt" && args[0].Float() < 0 {
			return ir.Value{}, fmt.Errorf("fsqrt of negative value %g", args[0].Float())
		}
		v, ok := ir.EvalBuiltin(e.Name, args)
		if !ok {
			return ir.Value{}, fmt.Errorf("unknown builtin %s", e.Name)
		}
		return v, nil
	default:
		return ir.Value{}, fmt.Errorf("unhandled expression %T", e)
	}
}

func evalInt(e ir.Expr, en *env, ctx evalCtx) (int64, error) {
	v, err := eval(e, en, ctx)
	if err != nil {
		return 0, err
	}
	if v.T == source.TypeFloat {
		return 0, fmt.Errorf("index is not an integer")
	}
	return v.I, nil
}

// Memory is the shared address space. Storage is indexed by the dense
// symbol IDs the checker interns (Symbol.ID), so the simulator's per-event
// reads and writes are slice lookups rather than map probes.
type Memory struct {
	data  [][]ir.Value  // indexed by Symbol.ID
	syms  []*sem.Symbol // parallel to data, declaration order
	procs int

	// Ownership is resolved per event on the simulator's hot path, so the
	// layout dispatch is precomputed per symbol: ownKind selects the rule
	// and ownParam carries its constant (resolved owner for scalars, block
	// size for blocked arrays — or, for the *P2 kinds, the equivalent
	// shift/mask so the common power-of-two machine sizes skip the integer
	// divisions entirely).
	ownKind   []uint8
	ownParam  []int64
	procsMask int64 // procs-1 when procs is a power of two, else -1
}

// Ownership rule kinds, indexed by Memory.ownKind.
const (
	ownScalar    uint8 = iota
	ownCyclic          // idx % procs
	ownCyclicP2        // idx & procsMask
	ownBlocked         // (idx / blockSize) % procs
	ownBlockedP2       // (idx >> ownParam) & procsMask
)

// NewMemory allocates and initializes the shared space for a program.
func NewMemory(info *sem.Info, procs int) *Memory {
	m := &Memory{
		data:     make([][]ir.Value, len(info.Shared)),
		syms:     info.Shared,
		procs:    procs,
		ownKind:  make([]uint8, len(info.Shared)),
		ownParam: make([]int64, len(info.Shared)),
	}
	p := int64(procs)
	m.procsMask = -1
	if p&(p-1) == 0 {
		m.procsMask = p - 1
	}
	for _, s := range info.Shared {
		m.data[s.ID] = make([]ir.Value, s.Size)
		switch {
		case !s.IsArr:
			m.ownKind[s.ID] = ownScalar
			m.ownParam[s.ID] = s.Owner % p
		case s.Layout == source.LayoutCyclic:
			m.ownKind[s.ID] = ownCyclic
			if m.procsMask >= 0 {
				m.ownKind[s.ID] = ownCyclicP2
			}
		default:
			bs := (s.Size + p - 1) / p
			m.ownKind[s.ID] = ownBlocked
			m.ownParam[s.ID] = bs
			if m.procsMask >= 0 && bs&(bs-1) == 0 {
				m.ownKind[s.ID] = ownBlockedP2
				m.ownParam[s.ID] = int64(bitsLen(uint64(bs)) - 1)
			}
		}
	}
	m.reset()
	return m
}

// reset returns every shared variable to its declared initial value.
func (m *Memory) reset() {
	for _, s := range m.syms {
		init := ir.IntVal(s.Init.I)
		if s.Type == source.TypeFloat {
			init = ir.FloatVal(s.Init.F)
		}
		vals := m.data[s.ID]
		for i := range vals {
			vals[i] = init
		}
	}
}

// bitsLen is bits.Len64 without the import (the shift count of a
// power-of-two block size).
func bitsLen(x uint64) int {
	n := 0
	for x != 0 {
		x >>= 1
		n++
	}
	return n
}

// CheckIndex validates an element index for a symbol.
func (m *Memory) CheckIndex(sym *sem.Symbol, idx int64) error {
	if idx < 0 || idx >= sym.Size {
		return fmt.Errorf("index %d out of range for %s[%d]", idx, sym.Name, sym.Size)
	}
	return nil
}

// ReadID returns the value at element idx of the symbol with the given ID.
func (m *Memory) ReadID(symID int32, idx int64) ir.Value { return m.data[symID][idx] }

// WriteID stores v into element idx of the symbol with the given ID.
func (m *Memory) WriteID(symID int32, idx int64, v ir.Value) { m.data[symID][idx] = v }

// ownerBy applies the layout rule kind, with its constant param, to
// element idx. The rule is precomputed per symbol (ownKind, ownParam) and
// copied into each access's accInfo.
func (m *Memory) ownerBy(kind uint8, param, idx int64) int {
	switch kind {
	case ownScalar:
		return int(param)
	case ownCyclicP2:
		return int(idx & m.procsMask)
	case ownCyclic:
		return int(idx % int64(m.procs))
	case ownBlockedP2:
		return int((idx >> uint(param)) & m.procsMask)
	default:
		return int((idx / param) % int64(m.procs))
	}
}

// Snapshot renders the final memory as a deterministic map for outcome
// comparison: symbol name to values.
func (m *Memory) Snapshot() map[string][]ir.Value {
	out := make(map[string][]ir.Value, len(m.data))
	for _, sym := range m.syms {
		vals := m.data[sym.ID]
		cp := make([]ir.Value, len(vals))
		copy(cp, vals)
		out[sym.Name] = cp
	}
	return out
}

// FormatSnapshot renders a snapshot canonically (sorted by name) so
// outcome sets can be compared as strings.
func FormatSnapshot(snap map[string][]ir.Value) string {
	return string(appendSnapshot(nil, snap))
}

// appendSnapshot appends FormatSnapshot's rendering of snap to buf.
func appendSnapshot(buf []byte, snap map[string][]ir.Value) []byte {
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		buf = append(buf, n...)
		buf = append(buf, "=["...)
		for i, v := range snap[n] {
			if i > 0 {
				buf = append(buf, ' ')
			}
			if v.T == source.TypeFloat {
				buf = append(buf, formatFloat(v.F)...)
			} else {
				buf = strconv.AppendInt(buf, v.I, 10)
			}
		}
		buf = append(buf, "] "...)
	}
	return buf
}

func formatFloat(f float64) string {
	if math.IsNaN(f) {
		return "NaN"
	}
	return fmt.Sprintf("%.6g", f)
}
