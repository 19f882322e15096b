// Package target defines the split-phase target IR the code generator
// lowers to and the simulator executes (section 6 of the paper).
//
// A target program mirrors the mid-level IR's control-flow graph, but every
// blocking shared access has been replaced by a split-phase operation:
//
//   - Get initiates a remote read into a local; the value is not valid
//     until a SyncCtr on the get's counter executes.
//   - Put initiates an acknowledged remote write; a SyncCtr on its counter
//     waits for the acknowledgement.
//   - Store is a one-way (unacknowledged) remote write, produced by the
//     two-way-to-one-way conversion; barriers drain outstanding stores.
//   - SyncCtr blocks until every outstanding operation on its
//     synchronizing counter has completed.
//   - Wrap carries an IR statement through unchanged (local computation,
//     print, and the post/wait/lock/unlock/barrier synchronization ops).
//
// Counters are small dense integers allocated by the code generator;
// several accesses may share one counter when their syncs coincide
// (Split-C's "new or reused" synchronizing counters).
package target

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"repro/internal/ir"
)

// Ctr names a synchronizing counter.
type Ctr int

// String renders the counter as cN.
func (c Ctr) String() string { return string(appendCtr(nil, c)) }

// Stmt is a target statement.
type Stmt interface{ stmtNode() }

// Get initiates a split-phase read of Acc into the local Dst, tracked by
// the synchronizing counter Ctr.
type Get struct {
	Dst ir.LocalID
	Acc *ir.Access
	Ctr Ctr
}

// Put initiates a split-phase acknowledged write of Src to Acc, tracked by
// the synchronizing counter Ctr.
type Put struct {
	Acc *ir.Access
	Src ir.Expr
	Ctr Ctr
}

// Store is a one-way unacknowledged write of Src to Acc. Its completion is
// observed only through barriers, which drain outstanding stores.
type Store struct {
	Acc *ir.Access
	Src ir.Expr
}

// CauseKind classifies why a sync_ctr was pinned at its position.
type CauseKind uint8

// Sync-placement causes, in the order the motion rules check them.
const (
	// CauseLocal: a local def-use dependence on the fetched value.
	CauseLocal CauseKind = iota
	// CauseDelay: a delay-set edge orders the access before the blocker.
	CauseDelay
	// CauseAlias: a same-processor access to a possibly-identical address.
	CauseAlias
	// CauseBranch: a branch condition uses the fetched value.
	CauseBranch
)

// String names the cause kind.
func (k CauseKind) String() string {
	switch k {
	case CauseLocal:
		return "local"
	case CauseDelay:
		return "delay"
	case CauseAlias:
		return "alias"
	case CauseBranch:
		return "branch"
	default:
		return fmt.Sprintf("CauseKind(%d)", int(k))
	}
}

// Cause records the provenance of one emitted sync_ctr: which access's
// completion it awaits and what pinned it at its position. The dynamic
// SC verifier uses this to connect an observed violation back to the
// delay edge (or dependence) whose enforcement went missing.
type Cause struct {
	Acc     int       // access whose outstanding operation the sync awaits
	Blocker int       // access that stopped the sync's forward motion; -1 if none
	Kind    CauseKind // why the motion stopped
}

// String renders the cause, e.g. "delay(a3 before a7)".
func (c Cause) String() string {
	if c.Blocker < 0 {
		return fmt.Sprintf("%s(a%d)", c.Kind, c.Acc)
	}
	return fmt.Sprintf("%s(a%d before a%d)", c.Kind, c.Acc, c.Blocker)
}

// SyncCtr waits until all outstanding operations on Ctr have completed.
// Why, filled in by the code generator, records for each access syncing
// here which constraint pinned the sync at this position.
type SyncCtr struct {
	Ctr Ctr
	Why []Cause
}

// Wrap carries an IR statement through lowering unchanged.
type Wrap struct {
	S ir.Stmt
}

func (*Get) stmtNode()     {}
func (*Put) stmtNode()     {}
func (*Store) stmtNode()   {}
func (*SyncCtr) stmtNode() {}
func (*Wrap) stmtNode()    {}

// Term is a basic-block terminator.
type Term interface{ termNode() }

// Jump transfers control unconditionally.
type Jump struct{ To *Block }

// Branch transfers control on a condition.
type Branch struct {
	Cond ir.Expr
	Then *Block
	Else *Block
}

// Ret ends the program on this processor.
type Ret struct{}

func (*Jump) termNode()   {}
func (*Branch) termNode() {}
func (*Ret) termNode()    {}

// Block is a basic block of target statements.
type Block struct {
	ID    int
	Stmts []Stmt
	Term  Term
}

// ForSuccs calls f with each of the block's successors: a jump's target, a
// branch's then arm and, when it differs, its else arm; none after a ret.
func (b *Block) ForSuccs(f func(*Block)) {
	switch t := b.Term.(type) {
	case *Jump:
		f(t.To)
	case *Branch:
		f(t.Then)
		if t.Else != t.Then {
			f(t.Else)
		}
	}
}

// Prog is a compiled split-phase program: the target CFG plus the number
// of synchronizing counters it uses. Fn is the IR function it was lowered
// from (for local names, access records, and shared-symbol layout).
type Prog struct {
	Fn       *ir.Fn
	Blocks   []*Block
	Counters int

	// engineCache memoizes execution artifacts derived from the program —
	// the bytecode image the VM engine compiles (internal/vm). It lives
	// here, behind an atomic slot, so every run of one compiled program
	// (benchmark grids, the verifier's schedule loops) shares a single
	// compile; target itself never inspects the value.
	engineCache atomic.Value
	// runner holds one idle simulator for the program (internal/interp's
	// Runner), parked by a run for the next run to take; target itself
	// never inspects it. The slot holds the parker's own box, so parking
	// allocates nothing.
	runner atomic.Pointer[any]
}

// EngineCache returns the cached execution artifact, or nil.
func (p *Prog) EngineCache() any { return p.engineCache.Load() }

// SetEngineCache publishes an execution artifact for reuse by later runs.
// Concurrent stores are benign: both values are equivalent and either wins.
func (p *Prog) SetEngineCache(v any) { p.engineCache.Store(v) }

// ParkedRunner returns the parked runner's box without taking it, or nil.
func (p *Prog) ParkedRunner() *any { return p.runner.Load() }

// TakeRunner empties the runner slot if it still holds box, and reports
// whether it did: of two callers taking one runner, one wins.
func (p *Prog) TakeRunner(box *any) bool { return p.runner.CompareAndSwap(box, nil) }

// ParkRunner puts box in the runner slot if the slot is empty, and reports
// whether it did; a second runner is not parked beside the first.
func (p *Prog) ParkRunner(box *any) bool { return p.runner.CompareAndSwap(nil, box) }

// NewBlock appends a fresh empty block with the given ID and returns it.
// The code generator mirrors the IR CFG, so IDs equal slice positions.
func (p *Prog) NewBlock(id int) *Block {
	b := &Block{ID: id}
	p.Blocks = append(p.Blocks, b)
	return b
}

// Stats counts a program's statements by kind.
type Stats struct {
	Gets   int
	Puts   int
	Stores int
	Syncs  int
}

// CollectStats tallies the program's statements.
func (p *Prog) CollectStats() Stats {
	var st Stats
	for _, b := range p.Blocks {
		for _, s := range b.Stmts {
			switch s.(type) {
			case *Get:
				st.Gets++
			case *Put:
				st.Puts++
			case *Store:
				st.Stores++
			case *SyncCtr:
				st.Syncs++
			}
		}
	}
	return st
}

// String renders the whole program. Like the IR printer it appends to one
// byte slice all the way down: every compile the daemon answers, and every
// op of the compile-2k benchmark, prints its program.
func (p *Prog) String() string {
	b := append([]byte("target "), p.Fn.Name...)
	b = append(b, " (counters="...)
	b = strconv.AppendInt(b, int64(p.Counters), 10)
	b = append(b, ")\n"...)
	for _, blk := range p.Blocks {
		b = appendBlockID(b, blk)
		b = append(b, ":\n"...)
		for _, s := range blk.Stmts {
			b = append(b, "    "...)
			b = p.appendStmt(b, s)
			b = append(b, '\n')
		}
		switch t := blk.Term.(type) {
		case *Jump:
			b = append(b, "    jump "...)
			b = appendBlockID(b, t.To)
			b = append(b, '\n')
		case *Branch:
			b = append(b, "    branch "...)
			b = p.Fn.AppendExpr(b, t.Cond)
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

// StmtString renders one statement, e.g. "get_ctr t1 = X[i], c0    ; a3".
func (p *Prog) StmtString(s Stmt) string { return string(p.appendStmt(nil, s)) }

func (p *Prog) appendStmt(b []byte, s Stmt) []byte {
	fn := p.Fn
	switch s := s.(type) {
	case *Get:
		b = append(b, "get_ctr "...)
		b = fn.AppendLocal(b, s.Dst)
		b = append(b, " = "...)
		b = fn.AppendRef(b, s.Acc)
		b = appendCtr(append(b, ", "...), s.Ctr)
		return appendAccID(b, s.Acc)
	case *Put:
		b = append(b, "put_ctr "...)
		b = fn.AppendRef(b, s.Acc)
		b = append(b, " = "...)
		b = fn.AppendExpr(b, s.Src)
		b = appendCtr(append(b, ", "...), s.Ctr)
		return appendAccID(b, s.Acc)
	case *Store:
		b = append(b, "store "...)
		b = fn.AppendRef(b, s.Acc)
		b = append(b, " = "...)
		b = fn.AppendExpr(b, s.Src)
		return appendAccID(b, s.Acc)
	case *SyncCtr:
		return appendCtr(append(b, "sync_ctr "...), s.Ctr)
	case *Wrap:
		return fn.AppendStmt(b, s.S)
	default:
		return fmt.Appendf(b, "?stmt %T", s)
	}
}

func appendBlockID(b []byte, blk *Block) []byte {
	return strconv.AppendInt(append(b, 'b'), int64(blk.ID), 10)
}

func appendCtr(b []byte, c Ctr) []byte {
	return strconv.AppendInt(append(b, 'c'), int64(c), 10)
}

// appendAccID appends the "    ; a3" trailer of an access statement.
func appendAccID(b []byte, a *ir.Access) []byte {
	return strconv.AppendInt(append(b, "    ; a"...), int64(a.ID), 10)
}
