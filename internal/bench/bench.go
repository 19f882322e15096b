// Package bench regenerates the paper's evaluation: Table 1 (machine
// latencies), Figure 12 (normalized execution times of the five kernels at
// three optimization levels on a 64-processor CM-5), Figure 13 (speedup
// curves for the Epithelial kernel), and the ablation tables DESIGN.md
// calls out (delay-set sizes, message counts, individual synchronization
// analyses).
//
// Every simulated run is validated against the kernel's sequential oracle
// before its time is reported.
package bench

import (
	"fmt"
	"strings"

	"repro"
	"repro/internal/apps"
	"repro/internal/codegen"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/syncanal"
)

// Levels compared in Figure 12, in presentation order.
var fig12Levels = []splitc.Level{splitc.LevelBaseline, splitc.LevelPipelined, splitc.LevelOneWay}

// Fig12Row is one kernel's measurements.
type Fig12Row struct {
	App    string
	Cycles map[splitc.Level]float64
}

// Fig12Result is the whole experiment.
type Fig12Result struct {
	Procs, Scale int
	Machine      string
	Rows         []Fig12Row
}

// runKernel compiles and runs one kernel at one level, validating the
// result, and returns the simulation outcome.
func runKernel(k apps.Kernel, procs, scale int, lvl splitc.Level, cfg machine.Config) (*interp.Result, error) {
	prog, err := splitc.Compile(k.Source(procs, scale), splitc.Options{Procs: procs, Level: lvl})
	if err != nil {
		return nil, fmt.Errorf("%s/%s: compile: %w", k.Name, lvl, err)
	}
	res, err := prog.Run(cfg, interp.RunOptions{})
	if err != nil {
		return nil, fmt.Errorf("%s/%s: run: %w", k.Name, lvl, err)
	}
	if err := k.Check(res, procs, scale); err != nil {
		return nil, fmt.Errorf("%s/%s: validation: %w", k.Name, lvl, err)
	}
	return res, nil
}

// RunFigure12 measures all kernels at all levels. The kernel × level grid
// fans out across the worker pool (see Workers); cell results land in
// index-addressed slots and rows are assembled in grid order, so output
// is identical to a sequential run.
func RunFigure12(procs, scale int) (*Fig12Result, error) {
	cfg := machine.CM5(procs)
	out := &Fig12Result{Procs: procs, Scale: scale, Machine: cfg.Name}
	kernels := apps.All()
	nl := len(fig12Levels)
	cells := make([]*interp.Result, len(kernels)*nl)
	err := forIndexed(len(cells), func(i int) error {
		res, err := runKernel(kernels[i/nl], procs, scale, fig12Levels[i%nl], cfg)
		if err != nil {
			return err
		}
		cells[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ki, k := range kernels {
		row := Fig12Row{
			App:    k.Name,
			Cycles: map[splitc.Level]float64{},
		}
		for li, lvl := range fig12Levels {
			row.Cycles[lvl] = cells[ki*nl+li].Time
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Format renders Figure 12 in the paper's normalized style (the baseline
// compiled with Shasha–Snir analysis only is 1.0).
func (r *Fig12Result) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 12: normalized execution times (%s, %d processors, scale %d)\n",
		r.Machine, r.Procs, r.Scale)
	fmt.Fprintf(&sb, "%-10s %12s %12s %12s %10s\n", "app",
		"unoptimized", "pipelined", "one-way", "gain")
	for _, row := range r.Rows {
		base := row.Cycles[splitc.LevelBaseline]
		pipe := row.Cycles[splitc.LevelPipelined] / base
		onew := row.Cycles[splitc.LevelOneWay] / base
		fmt.Fprintf(&sb, "%-10s %12.3f %12.3f %12.3f %9.1f%%\n",
			row.App, 1.0, pipe, onew, (1-onew)*100)
	}
	sb.WriteString("(paper reports 20-35% improvements on the CM-5)\n")
	return sb.String()
}

// Fig13Point is one processor count's measurements.
type Fig13Point struct {
	Procs  int
	Cycles map[splitc.Level]float64
}

// Fig13Result is the Epithelial speedup study.
type Fig13Result struct {
	Scale  int
	App    string
	Points []Fig13Point
}

// RunFigure13 measures the Epithelial kernel across processor counts at a
// fixed problem size (procs must divide the matrix dimension 32*scale).
func RunFigure13(procList []int, scale int) (*Fig13Result, error) {
	k := apps.Epithel()
	out := &Fig13Result{Scale: scale, App: k.Name}
	nl := len(fig12Levels)
	cells := make([]*interp.Result, len(procList)*nl)
	err := forIndexed(len(cells), func(i int) error {
		p := procList[i/nl]
		res, err := runKernel(*apps.ByName(k.Name), p, scale, fig12Levels[i%nl], machine.CM5(p))
		if err != nil {
			return err
		}
		cells[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for pi, p := range procList {
		pt := Fig13Point{Procs: p, Cycles: map[splitc.Level]float64{}}
		for li, lvl := range fig12Levels {
			pt.Cycles[lvl] = cells[pi*nl+li].Time
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// Format renders Figure 13 as speedup curves (relative to each version's
// own single-processor time, as the paper plots).
func (r *Fig13Result) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 13: %s speedup vs processors (CM-5, scale %d)\n", r.App, r.Scale)
	fmt.Fprintf(&sb, "%-8s %14s %14s %14s\n", "procs", "unoptimized", "pipelined", "one-way")
	if len(r.Points) == 0 {
		return sb.String()
	}
	base := r.Points[0]
	for _, pt := range r.Points {
		fmt.Fprintf(&sb, "%-8d %14.2f %14.2f %14.2f\n", pt.Procs,
			base.Cycles[splitc.LevelBaseline]/pt.Cycles[splitc.LevelBaseline],
			base.Cycles[splitc.LevelPipelined]/pt.Cycles[splitc.LevelPipelined],
			base.Cycles[splitc.LevelOneWay]/pt.Cycles[splitc.LevelOneWay])
	}
	sb.WriteString("(the optimized versions scale better with processors, as in the paper)\n")
	return sb.String()
}

// RunTable1 renders the machine models and verifies each one's measured
// blocking access times against the paper's Table 1 numbers.
func RunTable1() (string, error) {
	var sb strings.Builder
	sb.WriteString("Table 1: access latencies (machine cycles)\n")
	fmt.Fprintf(&sb, "%-8s %14s %14s %18s %18s\n",
		"machine", "remote (model)", "local (model)", "remote (measured)", "local (measured)")
	for _, cfg := range machine.Table1(2) {
		remote, local, err := measureAccess(cfg)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "%-8s %14.0f %14.0f %18.0f %18.0f\n",
			cfg.Name, cfg.RemoteRoundTrip(), cfg.LocalCost, remote, local)
	}
	sb.WriteString("(paper: CM-5 400/30, T3D 85/23, DASH 110/26)\n")
	return sb.String(), nil
}

// measureAccess times one blocking remote read and one local read on the
// machine, subtracting a no-access control run.
func measureAccess(cfg machine.Config) (remote, local float64, err error) {
	probe := func(src string) (float64, error) {
		prog, err := splitc.Compile(src, splitc.Options{Procs: 2, Level: splitc.LevelBlocking})
		if err != nil {
			return 0, err
		}
		res, err := prog.Run(cfg, interp.RunOptions{})
		if err != nil {
			return 0, err
		}
		return res.Stats[0].Cycles, nil
	}
	controlSrc := `
func main() {
    local int v = 0;
}
`
	remoteSrc := `
shared int X on 1;
func main() {
    if (MYPROC == 0) {
        local int v = X;
    }
}
`
	localSrc := `
shared int X on 0;
func main() {
    if (MYPROC == 0) {
        local int v = X;
    }
}
`
	control, err := probe(controlSrc)
	if err != nil {
		return 0, 0, err
	}
	r, err := probe(remoteSrc)
	if err != nil {
		return 0, 0, err
	}
	l, err := probe(localSrc)
	if err != nil {
		return 0, 0, err
	}
	return r - control, l - control, nil
}

// AblationRow captures per-kernel analysis statistics.
type AblationRow struct {
	App                      string
	Accesses, Conflicts      int
	Baseline, Refined, Exact int
	NoPostWait               int
	NoBarrier                int
	NoLocks                  int
}

// RunDelayAblation reports delay-set sizes per kernel: the headline claim
// that synchronization analysis removes most spurious delays, plus the
// contribution of each synchronization construct and of the exact
// simple-path search.
func RunDelayAblation(procs, scale int) ([]AblationRow, error) {
	kernels := apps.All()
	out := make([]AblationRow, len(kernels))
	err := forIndexed(len(kernels), func(i int) error {
		k := kernels[i]
		src := k.Source(procs, scale)
		full, err := splitc.Compile(src, splitc.Options{Procs: procs, Level: splitc.LevelPipelined})
		if err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
		row := AblationRow{
			App:       k.Name,
			Accesses:  len(full.Fn.Accesses),
			Conflicts: full.Analysis.CS.Size(),
			Baseline:  full.Analysis.Baseline.Size(),
			Refined:   full.Analysis.D.Size(),
		}
		exact, err := splitc.Compile(src, splitc.Options{Procs: procs, Level: splitc.LevelPipelined, Exact: true})
		if err != nil {
			return err
		}
		row.Exact = exact.Analysis.D.Size()
		row.NoPostWait = ablate(src, procs, "postwait")
		row.NoBarrier = ablate(src, procs, "barrier")
		row.NoLocks = ablate(src, procs, "locks")
		out[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ablate recomputes the delay set with one synchronization analysis off.
func ablate(src string, procs int, which string) int {
	prog, err := splitc.Compile(src, splitc.Options{Procs: procs, Level: splitc.LevelPipelined})
	if err != nil {
		return -1
	}
	opts := syncanal.Options{}
	switch which {
	case "postwait":
		opts.NoPostWait = true
	case "barrier":
		opts.NoBarrier = true
	case "locks":
		opts.NoLocks = true
	}
	return syncanal.Analyze(prog.Fn, opts).D.Size()
}

// FormatAblation renders the delay-set ablation table.
func FormatAblation(rows []AblationRow, procs, scale int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Delay-set ablation (procs %d, scale %d)\n", procs, scale)
	fmt.Fprintf(&sb, "%-10s %6s %6s %9s %8s %7s %8s %8s %8s\n",
		"app", "accs", "confl", "baseline", "refined", "exact", "-postwt", "-barrier", "-locks")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %6d %6d %9d %8d %7d %8d %8d %8d\n",
			r.App, r.Accesses, r.Conflicts, r.Baseline, r.Refined, r.Exact,
			r.NoPostWait, r.NoBarrier, r.NoLocks)
	}
	return sb.String()
}

// MessageRow captures per-kernel message counts per level.
type MessageRow struct {
	App  string
	Msgs map[splitc.Level]int
}

// RunMessageAblation reports network message counts per kernel and level
// (one-way conversion removes the acknowledgement traffic).
func RunMessageAblation(procs, scale int) ([]MessageRow, error) {
	cfg := machine.CM5(procs)
	kernels := apps.All()
	nl := len(fig12Levels)
	cells := make([]*interp.Result, len(kernels)*nl)
	err := forIndexed(len(cells), func(i int) error {
		res, err := runKernel(kernels[i/nl], procs, scale, fig12Levels[i%nl], cfg)
		if err != nil {
			return err
		}
		cells[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]MessageRow, 0, len(kernels))
	for ki, k := range kernels {
		row := MessageRow{App: k.Name, Msgs: map[splitc.Level]int{}}
		for li, lvl := range fig12Levels {
			row.Msgs[lvl] = cells[ki*nl+li].Messages
		}
		out = append(out, row)
	}
	return out, nil
}

// FormatMessages renders the message-count table.
func FormatMessages(rows []MessageRow, procs, scale int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Network messages (procs %d, scale %d)\n", procs, scale)
	fmt.Fprintf(&sb, "%-10s %12s %12s %12s\n", "app", "unoptimized", "pipelined", "one-way")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %12d %12d %12d\n", r.App,
			r.Msgs[splitc.LevelBaseline], r.Msgs[splitc.LevelPipelined], r.Msgs[splitc.LevelOneWay])
	}
	return sb.String()
}

// CSERow captures per-kernel communication-elimination statistics.
type CSERow struct {
	App   string
	Stats codegen.Stats
}

// RunCSEStats compiles every kernel at full optimization and reports what
// the communication-eliminating transformations did.
func RunCSEStats(procs, scale int) ([]CSERow, error) {
	kernels := apps.All()
	out := make([]CSERow, len(kernels))
	err := forIndexed(len(kernels), func(i int) error {
		k := kernels[i]
		p, err := splitc.Compile(k.Source(procs, scale), splitc.Options{
			Procs: procs, Level: splitc.LevelOneWay, CSE: true,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
		out[i] = CSERow{App: k.Name, Stats: p.Codegen}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FormatCSE renders the communication-elimination table.
func FormatCSE(rows []CSERow, procs, scale int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Communication elimination and codegen statistics (procs %d, scale %d)\n", procs, scale)
	fmt.Fprintf(&sb, "%-10s %6s %7s %6s %7s %8s %7s %8s\n",
		"app", "fwd", "cached", "licm", "wrback", "to-store", "hoists", "ctr-shr")
	for _, r := range rows {
		s := r.Stats
		fmt.Fprintf(&sb, "%-10s %6d %7d %6d %7d %8d %7d %8d\n",
			r.App, s.GetsForwarded, s.GetsCached,
			s.GetsHoistedLICM, s.PutsEliminated, s.PutsConverted, s.InitsHoisted, s.CountersShared)
	}
	return sb.String()
}
