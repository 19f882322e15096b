package interp

import (
	"fmt"

	"repro/internal/ir"
)

// OpKind classifies a dynamic operation reported to a Tap.
type OpKind uint8

// Dynamic operation kinds. The first three are the split-phase data
// operations; the rest are synchronization. A barrier is reported as two
// operations — the arrival and the release — because its ordering
// semantics are two-sided: every release happens after every arrival of
// the same episode, but arrivals of one episode are mutually unordered.
const (
	OpGet OpKind = iota
	OpPut
	OpStore
	OpPost
	OpWait
	OpLock
	OpUnlock
	OpBarrierArrive
	OpBarrierRelease
	OpSyncCtr
)

// String names the kind.
func (k OpKind) String() string {
	switch k {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpStore:
		return "store"
	case OpPost:
		return "post"
	case OpWait:
		return "wait"
	case OpLock:
		return "lock"
	case OpUnlock:
		return "unlock"
	case OpBarrierArrive:
		return "barrier-arrive"
	case OpBarrierRelease:
		return "barrier-release"
	case OpSyncCtr:
		return "sync_ctr"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// IsData reports whether the kind is a data (memory) operation.
func (k OpKind) IsData() bool { return k <= OpStore }

// IsWrite reports whether the kind writes shared memory.
func (k OpKind) IsWrite() bool { return k == OpPut || k == OpStore }

// Tap observes the simulator's execution as it happens. It exists for the
// dynamic sequential-consistency verifier (internal/scverify), which
// reconstructs a happens-before trace from these callbacks, but is defined
// here so the simulator stays free of verifier imports.
//
// Callback contract:
//
//   - Block(proc, blk) fires every time processor proc enters target block
//     blk (including block 0 at startup). Issue events between two Block
//     calls on the same processor belong to one dynamic visit of that
//     block; initiation hoisting may issue them out of source order, so
//     consumers recover program order from Acc.Blk/Acc.Idx.
//   - Issue fires once per dynamic operation, in simulator issue order on
//     each processor, with a process-wide dense id dyn. acc is nil for
//     OpSyncCtr (idx then carries the counter number); idx is the
//     evaluated element index for data operations and 0 otherwise.
//   - MemEffect fires when a data operation's read sample or write
//     application is dispatched at its memory module. The call order of
//     MemEffect across the whole run is the order the simulated memory
//     system applied the operations; for reads, val is the sampled value,
//     for writes the stored one.
//   - Observe(dyn, from) fires when synchronization transfers an ordering
//     obligation between processors: a wait completing reports the post it
//     observed, a lock grant reports the unlock that released the lock
//     (from == -1 for a never-held lock).
//   - Episode(dyn, ep) assigns a barrier arrival or release to its barrier
//     episode; episodes are numbered 0,1,... in release order.
//
// Implementations must not retain acc beyond the call (it is shared with
// the program) and must be cheap: they run inside the event loop.
type Tap interface {
	Block(proc, blk int)
	Issue(dyn, proc int, kind OpKind, acc *ir.Access, idx int64, t float64)
	MemEffect(dyn int, write bool, val ir.Value, t float64)
	Observe(dyn, from int)
	Episode(dyn, ep int)
}

// tapIssue assigns the next dynamic-operation id and reports the issue of
// access accID (-1 for a sync_ctr, reported with a nil access), returning
// -1 when no tap is attached. It is small enough to inline, so the
// untapped path pays one test.
func (s *sim) tapIssue(p *proc, kind OpKind, accID int, idx int64) int {
	if s.tap == nil {
		return -1
	}
	return s.tapIssueTapped(p, kind, accID, idx)
}

func (s *sim) tapIssueTapped(p *proc, kind OpKind, accID int, idx int64) int {
	var acc *ir.Access
	if accID >= 0 {
		acc = s.prog.Fn.Accesses[accID]
	}
	dyn := s.nDyn
	s.nDyn++
	s.tap.Issue(dyn, p.id, kind, acc, idx, p.time)
	return dyn
}
