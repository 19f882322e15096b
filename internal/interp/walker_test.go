package interp

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/target"
)

// walker executes target blocks statement by statement over the AST: the
// bytecode VM's differential reference (engines_diff_test.go), selected
// through the Runner's SetWalker hook. It enters the simulator at the same
// points the VM host does — issueGetAt, issuePutAt, issueStoreAt, syncCtr,
// syncOpAt — after evaluating operands itself, so the two engines differ
// only in how they run the code between accesses.
type walker struct {
	s   *sim
	pcs []walkPC // per processor: the block and statement it is at
}

type walkPC struct {
	blk *target.Block
	idx int
}

func newWalker(s *sim) *walker { return &walker{s: s, pcs: make([]walkPC, len(s.procs))} }

func (w *walker) Reset() {
	for i := range w.pcs {
		w.pcs[i] = walkPC{blk: w.s.prog.Blocks[0]}
	}
}

func (w *walker) Done(p int) bool { return w.s.procs[p].done }

func (w *walker) Where(p int) (blk, stmt int) { return w.pcs[p].blk.ID, w.pcs[p].idx }

// Resume runs processor p until it blocks or finishes.
func (w *walker) Resume(id int) {
	s, p, pc := w.s, w.s.procs[id], &w.pcs[id]
	for s.err == nil && !p.done {
		if pc.idx >= len(pc.blk.Stmts) {
			if !w.terminate(p, pc) {
				return
			}
			continue
		}
		switch st := pc.blk.Stmts[pc.idx].(type) {
		case *target.Wrap:
			if !w.wrapped(p, st.S) {
				return
			}
		case *target.Get:
			w.issueGet(p, st)
		case *target.Put:
			w.issuePut(p, st)
		case *target.Store:
			w.issueStore(p, st)
		case *target.SyncCtr:
			// The run loop finishes the wait (finishSyncCtr) before the
			// resume syncCtr schedules, which starts at the next statement.
			s.syncCtr(p, st.Ctr)
			pc.idx++
			return
		default:
			s.fail(p, "unhandled target statement %T", st)
			return
		}
		pc.idx++
	}
}

func (w *walker) ctx(p *proc) evalCtx { return evalCtx{proc: p.id, procs: w.s.cfg.Procs} }

// terminate executes the block terminator; false means p failed.
func (w *walker) terminate(p *proc, pc *walkPC) bool {
	s := w.s
	switch t := pc.blk.Term.(type) {
	case *target.Jump:
		pc.blk, pc.idx = t.To, 0
		if s.tap != nil {
			s.tap.Block(p.id, pc.blk.ID)
		}
		return true
	case *target.Branch:
		v, err := eval(t.Cond, p.env, w.ctx(p))
		if err != nil {
			s.fail(p, "%v", err)
			return false
		}
		p.charge(s.cfg.ALUCost)
		if v.IsTrue() {
			pc.blk = t.Then
		} else {
			pc.blk = t.Else
		}
		pc.idx = 0
		if s.tap != nil {
			s.tap.Block(p.id, pc.blk.ID)
		}
		return true
	case *target.Ret:
		p.done = true
		return true
	default:
		s.fail(p, "missing terminator in block %d", pc.blk.ID)
		return false
	}
}

// wrapped executes a carried-over IR statement; false means p yielded or
// failed, and the statement runs again at the next resume.
func (w *walker) wrapped(p *proc, st ir.Stmt) bool {
	s := w.s
	switch st := st.(type) {
	case *ir.Assign:
		v, err := eval(st.Src, p.env, w.ctx(p))
		if err != nil {
			s.fail(p, "%v", err)
			return false
		}
		p.env.scalars[st.Dst] = v
		p.charge(s.cfg.ALUCost)
		return true
	case *ir.SetElem:
		idx, err := evalInt(st.Index, p.env, w.ctx(p))
		if err != nil {
			s.fail(p, "%v", err)
			return false
		}
		arr := p.env.arrays[st.Arr]
		if idx < 0 || idx >= int64(len(arr)) {
			s.fail(p, "local array index %d out of range [0,%d)", idx, len(arr))
			return false
		}
		v, err := eval(st.Src, p.env, w.ctx(p))
		if err != nil {
			s.fail(p, "%v", err)
			return false
		}
		arr[idx] = v
		p.charge(s.cfg.ALUCost)
		return true
	case *ir.Print:
		line := fmt.Sprintf("[p%d]", p.id)
		for _, a := range st.Args {
			if a.IsStr {
				line += " " + a.Str
			} else {
				v, err := eval(a.E, p.env, w.ctx(p))
				if err != nil {
					s.fail(p, "%v", err)
					return false
				}
				line += " " + v.String()
			}
		}
		p.prints = append(p.prints, line)
		p.charge(s.cfg.ALUCost)
		return true
	case *ir.SyncOp:
		if !p.waiting {
			s.verifyDelays(p, st.Acc)
		}
		idx := int64(0)
		if st.Acc.Index != nil {
			v, err := evalInt(st.Acc.Index, p.env, w.ctx(p))
			if err != nil {
				s.fail(p, "%v", err)
				return false
			}
			idx = v
		}
		return s.syncOpAt(p, st.Acc, idx)
	default:
		s.fail(p, "unhandled wrapped statement %T", st)
		return false
	}
}

// accessLoc evaluates an access's element index and owner.
func (w *walker) accessLoc(p *proc, acc *ir.Access) (idx int64, owner int, ok bool) {
	s := w.s
	if acc.Index != nil {
		v, err := evalInt(acc.Index, p.env, w.ctx(p))
		if err != nil {
			s.fail(p, "%v", err)
			return 0, 0, false
		}
		idx = v
	}
	if err := s.mem.CheckIndex(acc.Sym, idx); err != nil {
		s.fail(p, "%v", err)
		return 0, 0, false
	}
	return idx, s.mem.OwnerID(acc.Sym.ID, idx), true
}

func (w *walker) issueGet(p *proc, g *target.Get) {
	w.s.verifyDelays(p, g.Acc)
	idx, owner, ok := w.accessLoc(p, g.Acc)
	if !ok {
		return
	}
	w.s.issueGetAt(p, g.Acc.ID, idx, owner, g.Dst, g.Ctr)
}

func (w *walker) issuePut(p *proc, pt *target.Put) {
	s := w.s
	s.verifyDelays(p, pt.Acc)
	idx, owner, ok := w.accessLoc(p, pt.Acc)
	if !ok {
		return
	}
	v, err := eval(pt.Src, p.env, w.ctx(p))
	if err != nil {
		s.fail(p, "%v", err)
		return
	}
	s.issuePutAt(p, pt.Acc.ID, idx, owner, v, pt.Ctr)
}

func (w *walker) issueStore(p *proc, st *target.Store) {
	s := w.s
	s.verifyDelays(p, st.Acc)
	idx, owner, ok := w.accessLoc(p, st.Acc)
	if !ok {
		return
	}
	v, err := eval(st.Src, p.env, w.ctx(p))
	if err != nil {
		s.fail(p, "%v", err)
		return
	}
	s.issueStoreAt(p, st.Acc.ID, idx, owner, v)
}
