package main

import (
	"fmt"
	"time"

	splitc "repro"
	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/vm"
)

// fig12Levels are the three bars of the paper's Figure 12.
var fig12Levels = []splitc.Level{splitc.LevelBaseline, splitc.LevelPipelined, splitc.LevelOneWay}

// simCell is one compiled kernel of the lap and the answers the warm-up
// lap read from it.
type simCell struct {
	kernel apps.Kernel
	level  splitc.Level
	procs  int
	prog   *splitc.Program
	cfg    machine.Config
	// cycles and events are the warm-up lap's; every later lap must read
	// the same, the simulator being deterministic without jitter.
	cycles float64
	events int
}

// simulateApps runs one lap of the paper's evaluation per op: the five
// kernels at 64 processors and three levels on the simulated CM-5, plus
// Ocean and EM3D at 256. The VM and the event loop do the work; the
// compiles happen in set-up.
type simulateApps struct {
	cells []*simCell
}

func (w *simulateApps) clients() int { return 1 }

// tail: about 30 laps of 0.6 s fit a 20 s run.
func (w *simulateApps) tail() float64 { return 60 }

func (w *simulateApps) setUp(seed int64) error {
	add := func(k apps.Kernel, lvl splitc.Level, procs int) error {
		prog, err := splitc.Compile(k.Source(procs, 1), splitc.Options{Procs: procs, Level: lvl})
		if err != nil {
			return fmt.Errorf("%s/%s@%d: %w", k.Name, lvl, procs, err)
		}
		w.cells = append(w.cells, &simCell{kernel: k, level: lvl, procs: procs, prog: prog, cfg: machine.CM5(procs)})
		return nil
	}
	for _, k := range apps.All() {
		for _, lvl := range fig12Levels {
			if err := add(k, lvl, 64); err != nil {
				return err
			}
		}
	}
	for _, name := range []string{"Ocean", "EM3D"} {
		if err := add(*apps.ByName(name), splitc.LevelOneWay, 256); err != nil {
			return err
		}
	}
	// The warm-up lap fills vm.Compiled's cache and fixes the reference
	// cycle and event counts.
	for _, c := range w.cells {
		res, err := w.run(c)
		if err != nil {
			return err
		}
		c.cycles, c.events = res.Time, res.Events
	}
	return nil
}

// run simulates one cell and checks it against the kernel's sequential
// oracle.
func (w *simulateApps) run(c *simCell) (*interp.Result, error) {
	res, err := c.prog.Run(c.cfg, interp.RunOptions{})
	if err != nil {
		return nil, fmt.Errorf("%s/%s@%d: %w", c.kernel.Name, c.level, c.procs, err)
	}
	if err := c.kernel.Validate(res.Memory, c.procs, 1); err != nil {
		return nil, fmt.Errorf("%s/%s@%d: oracle: %w", c.kernel.Name, c.level, c.procs, err)
	}
	return res, nil
}

func (w *simulateApps) op(tid, i int, lt *layerTrace) (string, error) {
	vals := map[string]float64{}
	var running time.Duration
	a0 := allocBytes()
	for _, c := range w.cells {
		var id int
		if lt != nil {
			id = lt.tr.begin(fmt.Sprintf("run %s/%s@%d", c.kernel.Name, c.level, c.procs), -1, i, tid)
		}
		res, err := w.run(c)
		if err != nil {
			return "", err
		}
		if res.Time != c.cycles || res.Events != c.events {
			return "", fmt.Errorf("%s/%s@%d: %v cycles, %d events; the warm-up lap read %v, %d",
				c.kernel.Name, c.level, c.procs, res.Time, res.Events, c.cycles, c.events)
		}
		if lt != nil {
			d := lt.tr.end(id)
			running += d
			if c.level == splitc.LevelOneWay && c.procs == 64 {
				vals["interp.run_ms."+c.kernel.Name] = ms(d)
			}
			vals["interp.messages"] += float64(res.Messages)
		}
	}
	if lt != nil {
		vals["interp.alloc_kb_per_run"] = float64(allocBytes()-a0) / 1e3 / float64(len(w.cells))
		vals["interp.events_per_s"] = float64(w.lapEvents()) / running.Seconds()
		lt.add(vals)
	}
	return "", nil
}

func (w *simulateApps) start(lt *layerTrace) error { return nil }

func (w *simulateApps) lapEvents() int {
	n := 0
	for _, c := range w.cells {
		n += c.events
	}
	return n
}

// probe times the bytecode compiler, which the laps only ever hit in
// vm.Compiled's cache.
func (w *simulateApps) probe(lt *layerTrace) error {
	for rep := 0; rep < 5; rep++ {
		vals := map[string]float64{}
		for _, c := range w.cells {
			id := lt.tr.begin("vm.Compile "+c.kernel.Name, -1, rep, 0)
			code, err := vm.Compile(c.prog.Target)
			vals["vm.compile_ms"] += ms(lt.tr.end(id))
			if err != nil {
				return err
			}
			vals["vm.code_ops"] += float64(len(code.Code))
		}
		lt.add(vals)
	}
	return nil
}

// report adds the simulated results, which are exact: cycles per level
// summed over the five kernels at 64 processors, and the paper's headline
// gain of the one-way level over the baseline.
func (w *simulateApps) report(r *result, sp *spec, ph *phase, lt *layerTrace) {
	cycles := map[splitc.Level]float64{}
	base := map[string]float64{}
	gain := 0.0
	for _, c := range w.cells {
		if c.procs != 64 {
			continue
		}
		cycles[c.level] += c.cycles
		switch c.level {
		case splitc.LevelBaseline:
			base[c.kernel.Name] = c.cycles
		case splitc.LevelOneWay:
			gain += (1 - c.cycles/base[c.kernel.Name]) * 100
		}
	}
	r.exact(sp, "fig12_gain_pct", gain/float64(len(apps.All())))
	for _, lvl := range fig12Levels {
		r.setSpec(sp, "interp.sim_cycles."+lvl.String(), cycles[lvl])
	}
	r.setSpec(sp, "interp.events", float64(w.lapEvents()))
}

func (w *simulateApps) shutDown() {}
