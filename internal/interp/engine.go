package interp

import (
	"repro/internal/ir"
	"repro/internal/target"
	"repro/internal/vm"
)

// vmHost adapts the simulator to the VM's Host interface. Every run
// executes blocks on the bytecode VM (internal/vm); the AST walker of
// interp.go survives as its differential reference, selected only by the
// package's tests (export_test.go, engines_diff_test.go). The methods are
// the walker's statement bodies minus operand evaluation (the bytecode did
// that already), so both engines share one implementation of the event
// semantics, the cost model, and the tap protocol.
type vmHost struct{ s *sim }

// ChargeALUN applies n accumulated ALU charges one at a time: the
// floating-point additions hitting p.time are the walker's, in the
// walker's order, so clocks stay bit-identical.
func (h *vmHost) ChargeALUN(p, n int) {
	pr := h.s.procs[p]
	c := h.s.cfg.ALUCost
	for i := 0; i < n; i++ {
		pr.charge(c)
	}
}

func (h *vmHost) EnterBlock(p, blk int) {
	if h.s.tap != nil {
		h.s.tap.Block(p, blk)
	}
}

func (h *vmHost) Print(p int, line string) {
	pr := h.s.procs[p]
	pr.prints = append(pr.prints, line)
}

func (h *vmHost) Fail(p int, format string, args ...any) {
	h.s.fail(h.s.procs[p], format, args...)
}

func (h *vmHost) Get(p, accID int, idx int64, dst ir.LocalID, ctr int) bool {
	s := h.s
	pr := s.procs[p]
	acc := s.prog.Fn.Accesses[accID]
	s.verifyDelays(pr, acc)
	if err := s.mem.CheckIndex(acc.Sym, idx); err != nil {
		s.fail(pr, "%v", err)
		return false
	}
	s.issueGetAt(pr, acc, idx, s.mem.OwnerID(acc.Sym.ID, idx), dst, target.Ctr(ctr))
	return s.err == nil
}

func (h *vmHost) Put(p, accID int, idx int64, v ir.Value, ctr int) bool {
	s := h.s
	pr := s.procs[p]
	acc := s.prog.Fn.Accesses[accID]
	s.verifyDelays(pr, acc)
	if err := s.mem.CheckIndex(acc.Sym, idx); err != nil {
		s.fail(pr, "%v", err)
		return false
	}
	s.issuePutAt(pr, acc, idx, s.mem.OwnerID(acc.Sym.ID, idx), v, target.Ctr(ctr))
	return s.err == nil
}

func (h *vmHost) Store(p, accID int, idx int64, v ir.Value) bool {
	s := h.s
	pr := s.procs[p]
	acc := s.prog.Fn.Accesses[accID]
	s.verifyDelays(pr, acc)
	if err := s.mem.CheckIndex(acc.Sym, idx); err != nil {
		s.fail(pr, "%v", err)
		return false
	}
	s.issueStoreAt(pr, acc, idx, s.mem.OwnerID(acc.Sym.ID, idx), v)
	return s.err == nil
}

func (h *vmHost) SyncCtr(p, ctr int) bool {
	return h.s.syncCtr(h.s.procs[p], target.Ctr(ctr))
}

func (h *vmHost) Sync(p, accID int, idx int64) bool {
	s := h.s
	return s.syncOpAt(s.procs[p], s.prog.Fn.Accesses[accID], idx)
}

// vm.Host conformance check.
var _ vm.Host = (*vmHost)(nil)
