package bench

import (
	"fmt"
	"strings"

	"repro"
	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/machine"
)

// The big-proc tier scales the simulated machine instead of the problem:
// one kernel on hundreds to thousands of simulated processors. It guards
// the executor structures whose cost grows with the processor count (the
// event queue's depth, per-processor slabs, barrier fan-in, the lazy reads'
// forcing bound) and doubles as an engine-equivalence check at scale: each
// configuration runs under both the bytecode VM and the AST walker, and
// the row fails unless the two agree on every simulated observable.

// BigProcRow is one processor count's measurements.
type BigProcRow struct {
	App    string
	Procs  int
	Cycles float64 // simulated makespan (identical across engines)
	Events int     // dispatched simulator events
	Msgs   int     // simulated network messages
}

// BigProcResult is the whole scaling study.
type BigProcResult struct {
	Scale int
	Rows  []BigProcRow
}

// BigProcCounts is the tier's standard machine sizes.
var BigProcCounts = []int{256, 1024}

// RunBigProc measures the EM3D kernel at each processor count under both
// engines, validating results against the kernel oracle and each engine
// against the other.
func RunBigProc(procList []int, scale int) (*BigProcResult, error) {
	k := apps.ByName("EM3D")
	if k == nil {
		return nil, fmt.Errorf("EM3D kernel not registered")
	}
	out := &BigProcResult{Scale: scale, Rows: make([]BigProcRow, len(procList))}
	err := forIndexed(len(procList), func(i int) error {
		procs := procList[i]
		cfg := machine.CM5(procs)
		prog, err := splitc.Compile(k.Source(procs, scale), splitc.Options{Procs: procs, Level: splitc.LevelOneWay})
		if err != nil {
			return fmt.Errorf("bigproc %d: compile: %w", procs, err)
		}
		var res [2]*interp.Result
		for e, eng := range []interp.Engine{interp.EngineVM, interp.EngineWalker} {
			r, err := prog.Run(cfg, interp.RunOptions{Engine: eng})
			if err != nil {
				return fmt.Errorf("bigproc %d/%s: run: %w", procs, eng, err)
			}
			if err := k.Check(r, procs, scale); err != nil {
				return fmt.Errorf("bigproc %d/%s: validation: %w", procs, eng, err)
			}
			res[e] = r
		}
		vm, walk := res[0], res[1]
		if vm.Time != walk.Time || vm.Events != walk.Events || vm.Messages != walk.Messages {
			return fmt.Errorf("bigproc %d: engines disagree: vm (time %v, events %d, msgs %d) vs walk (time %v, events %d, msgs %d)",
				procs, vm.Time, vm.Events, vm.Messages, walk.Time, walk.Events, walk.Messages)
		}
		out.Rows[i] = BigProcRow{App: k.Name, Procs: procs, Cycles: vm.Time, Events: vm.Events, Msgs: vm.Messages}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Format renders the scaling table.
func (r *BigProcResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Big-proc tier: EM3D one-way, scale %d (VM and walker engines agree per row)\n", r.Scale)
	fmt.Fprintf(&sb, "%-10s %8s %14s %10s %10s\n", "app", "procs", "cycles", "events", "msgs")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-10s %8d %14.1f %10d %10d\n", row.App, row.Procs, row.Cycles, row.Events, row.Msgs)
	}
	return sb.String()
}

// JSON shapes the result for BENCH_bigproc.json.
func (r *BigProcResult) JSON() any {
	type row struct {
		App    string  `json:"app"`
		Procs  int     `json:"procs"`
		Cycles float64 `json:"cycles"`
		Events int     `json:"events"`
		Msgs   int     `json:"msgs"`
	}
	rows := make([]row, 0, len(r.Rows))
	for _, b := range r.Rows {
		rows = append(rows, row{App: b.App, Procs: b.Procs, Cycles: b.Cycles, Events: b.Events, Msgs: b.Msgs})
	}
	return map[string]any{"scale": r.Scale, "rows": rows}
}
