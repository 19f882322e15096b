package interp

import (
	"fmt"

	"repro/internal/ir"
)

// SCResult is the outcome of a sequentially consistent run.
type SCResult struct {
	Memory map[string][]ir.Value
	Prints []string
}

// maxSCSteps bounds a RunSC walk: a program still running after this many
// steps is reported as a livelock.
const maxSCSteps = 50_000_000

// RunSC executes the IR under one random sequentially consistent
// interleaving: a walk over the enumerators' own transition relation
// (mcState.step), one whole statement at a time, shared accesses atomic.
//
// Each step picks uniformly among the live processors not marked blocked,
// drawing from seed's schedRNG stream (the generator behind the
// simulator's jitter). A step that cannot progress marks its processor
// blocked; any step that progresses clears every mark; a run whose live
// processors are all marked has deadlocked. A seed names a schedule of
// this generator only: which interleaving it picks on a racy program
// changes with the generator, while a race-free program's answer does not
// depend on the seed at all. The trail is dropped after every step, so a
// long run holds only the machine state. A runtime error is a
// *RuntimeError naming the processor that raised it.
func RunSC(fn *ir.Fn, procs int, seed int64) (*SCResult, error) {
	if procs <= 0 {
		return nil, fmt.Errorf("sc: procs must be positive")
	}
	st := newMCState(fn, procs)
	var rng schedRNG
	rng.seed(seed)
	blocked := make([]bool, procs)
	ready := make([]int, 0, procs)
	for steps := 0; ; steps++ {
		ready = ready[:0]
		live := false
		for p := range st.procs {
			if st.procs[p].done {
				continue
			}
			live = true
			if !blocked[p] {
				ready = append(ready, p)
			}
		}
		if !live {
			break
		}
		if len(ready) == 0 {
			return nil, fmt.Errorf("sc: deadlock (all live processors blocked)")
		}
		if steps == maxSCSteps {
			return nil, fmt.Errorf("sc: exceeded %d steps (livelock?)", maxSCSteps)
		}
		p := ready[int(rng.Float64()*float64(len(ready)))]
		progressed, err := st.step(p)
		if err != nil {
			return nil, &RuntimeError{Proc: p, Msg: err.Error()}
		}
		st.trail = st.trail[:0]
		if progressed {
			clear(blocked)
		} else {
			blocked[p] = true
		}
	}
	return &SCResult{Memory: st.snapshot(), Prints: st.allPrints()}, nil
}
