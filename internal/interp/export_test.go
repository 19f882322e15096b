package interp

import (
	"context"
	"fmt"

	"repro/internal/ir"
	"repro/internal/target"
)

// Test hooks for the tests in interp_test, which live there because they
// compile through the root package (which imports this one).

// SetWalker makes r's later runs execute blocks on the AST walker, the
// bytecode VM's differential reference (walker_test.go), instead of the VM.
func (r *Runner) SetWalker(on bool) {
	r.walker = nil
	if on {
		r.walker = newWalker(&r.s)
	}
}

// MadeVM reports whether r has built its bytecode machine, which only a
// run on the VM does: a Runner whose every run was on the walker has not.
func (r *Runner) MadeVM() bool { return r.vmm != nil }

// SetQueueReads makes r's later runs push every get-read through the event
// queue (the path a tapped, jittered or perturbed run takes) whatever
// their options say.
func (r *Runner) SetQueueReads(on bool) { r.s.queueReads = on }

// CheckForcingBound makes every evMemWrite dispatch of r's later runs
// check the invariant the write-forcing shortcut rests on — minArr is no
// later than the arrival of any lazy read not yet sampled — reporting a
// violation to fail. It returns a counter of the dispatches that found at
// least one such read outstanding, so a test can tell that the lazy path
// was really taken.
func (r *Runner) CheckForcingBound(fail func(msg string)) *int {
	s := &r.s
	sawPending := new(int)
	s.onWrite = func(e *event) {
		if !s.lazy {
			return
		}
		pending := false
		for _, p := range s.procs {
			for i := range p.lands {
				l := &p.lands[i]
				if l.deposited {
					continue
				}
				pending = true
				if l.arr < s.minArr {
					fail(fmt.Sprintf("write at t=%v seq=%d: proc %d has an unsampled read arriving at %v, bound says %v",
						e.t, e.seq, p.id, l.arr, s.minArr))
				}
			}
		}
		if pending {
			*sawPending++
		}
	}
	return sawPending
}

// QueueTraffic reports where the last run's event-queue pushes went: how
// many the sorted run took and how many the heap took.
func (r *Runner) QueueTraffic() (run, heap int) { return r.s.queue.tail, r.s.queue.heapPushes }

// VMCrossings counts a run's calls into the simulator by vm.Host method.
type VMCrossings = hostCalls

// VMTraffic reports the last run's work on the bytecode VM: the ops it
// dispatched and its host calls by method.
func (r *Runner) VMTraffic() (ops int, calls VMCrossings) {
	return r.vmm.Dispatched(), r.host.calls
}

// Parked returns the Runner parked on prog, without taking it, or nil.
func Parked(prog *target.Prog) *Runner {
	if box := prog.ParkedRunner(); box != nil {
		return (*box).(*Runner)
	}
	return nil
}

// HoldsCallerState reports whether r still holds anything of its last
// run's caller: the tap, the options, the delay set.
func (r *Runner) HoldsCallerState() bool {
	s := &r.s
	return s.tap != nil || s.opts.Tap != nil || s.opts != (RunOptions{}) || s.delayPreds != nil
}

// EnumerateSCReferenceStats explores the same transition system as
// EnumerateSCStats without partial-order reduction — from every reachable
// state, every processor that can move takes the next atomic step — and
// deduplicates states on their full encoding rather than its 128-bit
// fingerprint. It returns the set of final-state outcome keys and the
// exploration statistics, or ok=false if the exploration exceeded
// maxStates; zero or less selects 2,000,000 states (half the reduced
// engine's default: unreduced, every intermediate state is a visited
// state, and each keeps its encoding).
//
// Both enumerators share mcState.step, so this does not check the step
// semantics; it checks what the reduction adds on top of them, the ample sets
// and the fingerprints (enum_diff_test.go).
func EnumerateSCReferenceStats(fn *ir.Fn, procs, maxStates int) (map[string]bool, EnumStats, bool) {
	if maxStates <= 0 {
		maxStates = 2_000_000
	}
	st := enumerate(context.Background(), fn, procs, maxStates, false)
	if st.stats.Truncated {
		return nil, st.stats, false
	}
	return st.outcomes, st.stats, true
}

// EnumerateSC is EnumerateSCStats without the statistics.
func EnumerateSC(fn *ir.Fn, procs, maxStates int) (outcomes map[string]bool, ok bool) {
	outcomes, _, ok = EnumerateSCStats(fn, procs, maxStates)
	return outcomes, ok
}
