package interp

import (
	"repro/internal/ir"
	"repro/internal/target"
	"repro/internal/vm"
)

// vmHost adapts the simulator to the VM's Host interface. Every run
// executes blocks on the bytecode VM (internal/vm); its differential
// reference, the AST walker, lives in the package's tests (walker_test.go,
// selected through export_test.go's SetWalker). The methods enter the
// simulator past operand evaluation (the bytecode did that already), at
// the same points the walker enters it, so both engines share one
// implementation of the event semantics, the cost model, and the tap
// protocol.
type vmHost struct {
	s     *sim
	calls hostCalls // this run's crossings, by method
}

// hostCalls counts one run's calls into the simulator by vm.Host method
// (Fail, which ends the run, is not counted).
type hostCalls struct {
	ChargeALUN, EnterBlock, Print, Get, Put, Store, SyncCtr, Sync int
}

// ChargeALUN applies n accumulated ALU charges where no access carries
// them: at ret, and before a traced block entry. Like the charges an
// access carries (its alu argument), they are n separate additions, in
// statement order, so clocks stay bit-identical to the walker's.
func (h *vmHost) ChargeALUN(p, n int) {
	h.calls.ChargeALUN++
	h.s.procs[p].chargeN(n, h.s.cfg.ALUCost)
}

func (h *vmHost) EnterBlock(p, blk int) {
	h.calls.EnterBlock++
	if h.s.tap != nil {
		h.s.tap.Block(p, blk)
	}
}

func (h *vmHost) Print(p int, line string) {
	h.calls.Print++
	pr := h.s.procs[p]
	pr.prints = append(pr.prints, line)
}

func (h *vmHost) Fail(p int, format string, args ...any) {
	h.s.fail(h.s.procs[p], format, args...)
}

// Get, Put and Store are the host path of a data access. The per-access
// work is what the access needs on every run: its ALU charges, a bounds
// test against the symbol's extent and the owner's layout rule, both read
// from the Runner's access table (accInfo). The delay verifier is called
// only when a run carries a delay set; the tap is consulted inside the
// issue.
func (h *vmHost) Get(p, alu, accID int, idx int64, dst ir.LocalID, ctr int) bool {
	h.calls.Get++
	s := h.s
	pr := s.procs[p]
	pr.chargeN(alu, s.cfg.ALUCost)
	a := &s.accs[accID]
	if s.delayPreds != nil {
		s.verifyDelays(pr, s.prog.Fn.Accesses[accID])
	}
	if uint64(idx) >= uint64(a.size) {
		s.failIndex(pr, accID, idx)
		return false
	}
	s.issueGetAt(pr, accID, idx, s.mem.ownerBy(a.ownKind, a.ownParam, idx), dst, target.Ctr(ctr))
	return s.err == nil
}

func (h *vmHost) Put(p, alu, accID int, idx int64, v ir.Value, ctr int) bool {
	h.calls.Put++
	s := h.s
	pr := s.procs[p]
	pr.chargeN(alu, s.cfg.ALUCost)
	a := &s.accs[accID]
	if s.delayPreds != nil {
		s.verifyDelays(pr, s.prog.Fn.Accesses[accID])
	}
	if uint64(idx) >= uint64(a.size) {
		s.failIndex(pr, accID, idx)
		return false
	}
	s.issuePutAt(pr, accID, idx, s.mem.ownerBy(a.ownKind, a.ownParam, idx), v, target.Ctr(ctr))
	return s.err == nil
}

func (h *vmHost) Store(p, alu, accID int, idx int64, v ir.Value) bool {
	h.calls.Store++
	s := h.s
	pr := s.procs[p]
	pr.chargeN(alu, s.cfg.ALUCost)
	a := &s.accs[accID]
	if s.delayPreds != nil {
		s.verifyDelays(pr, s.prog.Fn.Accesses[accID])
	}
	if uint64(idx) >= uint64(a.size) {
		s.failIndex(pr, accID, idx)
		return false
	}
	s.issueStoreAt(pr, accID, idx, s.mem.ownerBy(a.ownKind, a.ownParam, idx), v)
	return s.err == nil
}

// SyncCtr always yields: the run loop finishes the wait (finishSyncCtr)
// when it dispatches the resume this schedules.
func (h *vmHost) SyncCtr(p, alu, ctr int) bool {
	h.calls.SyncCtr++
	pr := h.s.procs[p]
	pr.chargeN(alu, h.s.cfg.ALUCost)
	h.s.syncCtr(pr, target.Ctr(ctr))
	return false
}

func (h *vmHost) Sync(p, alu, accID int, idx int64) bool {
	h.calls.Sync++
	s := h.s
	pr := s.procs[p]
	pr.chargeN(alu, s.cfg.ALUCost)
	return s.syncOpAt(pr, s.prog.Fn.Accesses[accID], idx)
}

// vm.Host conformance check.
var _ vm.Host = (*vmHost)(nil)
