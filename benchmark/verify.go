package main

import (
	"embed"
	"fmt"
	"math/rand"
	"time"

	splitc "repro"
	"repro/internal/apps"
	"repro/internal/delay"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/pass"
	"repro/internal/progen"
	"repro/internal/scverify"
	"repro/internal/vm"
)

//go:embed litmus/*.ms
var litmusFS embed.FS

func litmus(name string) string {
	data, err := litmusFS.ReadFile("litmus/" + name + ".ms")
	if err != nil {
		panic(err) // the files are compiled in
	}
	return string(data)
}

// verifyCase is one scverify.Verify call and its known answer.
type verifyCase struct {
	group string // "apps", "racy" or "weakened"
	name  string
	src   string
	opts  scverify.Options
	// violation is the known answer: a weakened-delay case must be flagged
	// with an ordering cycle, every other case must verify clean.
	violation bool
}

// A lap verifies racyCount generated racy programs, chosen among
// racyCandidates: about a quarter of the generator's programs qualify.
const (
	racyCount      = 32
	racyCandidates = 256
)

// verifyMix runs one lap of SC verdicts per op: four app kernels against
// their oracles, 32 seeded racy programs against the exact SC outcome set,
// and the four weakened-delay litmus cases. Hundreds of short tapped,
// perturbed runs: per-run set-up dominates, not the event loop.
type verifyMix struct {
	cases []verifyCase
	// runs and states are the lap's exact counts, fixed by the warm-up lap.
	runs, states int
	// weakened and caught count the weakened-delay verdicts of the timed
	// laps and how many of them found the ordering cycle.
	weakened, caught int
}

func (w *verifyMix) clients() int { return 1 }

// tail: about 130 laps of 0.15 s fit a 20 s run.
func (w *verifyMix) tail() float64 { return 90 }

// heavyJitter is a wide grid of heavily jittered schedules, for a weakening
// whose violation window only opens when a data message outruns a two-hop
// notification.
func heavyJitter(n int) []scverify.Schedule {
	out := make([]scverify.Schedule, n)
	for i := range out {
		out[i] = scverify.Schedule{Seed: int64(i), Jitter: 8, Perturb: true}
	}
	return out
}

func (w *verifyMix) setUp(seed int64) error {
	for _, name := range []string{"Ocean", "EM3D", "Cholesky", "Health"} {
		k := *apps.ByName(name)
		w.cases = append(w.cases, verifyCase{group: "apps", name: name, src: k.Source(4, 1),
			opts: scverify.Options{Procs: 4, Deterministic: true,
				Validate: func(mem map[string][]ir.Value) error { return k.Validate(mem, 4, 1) }}})
	}

	// The racy programs are drawn from the seed: the first 32 of a fixed
	// number of candidates that really race (more than one SC outcome) and
	// are of middling size. Enumeration cost is heavy-tailed, and one
	// 30000-state program would make a lap's time a property of the seed,
	// not of the system; examining every candidate, kept or not, does the
	// same for set-up time.
	rng := rand.New(rand.NewSource(seed))
	kept := 0
	for i := 0; i < racyCandidates; i++ {
		pseed := rng.Int63()
		src := progen.Generate(pseed, progen.Options{Procs: 2})
		p, err := splitc.Compile(src, splitc.Options{Procs: 2, Level: splitc.LevelBlocking})
		if err != nil {
			return fmt.Errorf("progen seed %d: %w", pseed, err)
		}
		if n := len(p.Fn.Accesses); n < 8 || n > 16 {
			continue
		}
		_, st, ok := interp.EnumerateSCStats(p.Fn, 2, 2000)
		if !ok || st.Outcomes < 2 || kept == racyCount {
			continue
		}
		w.cases = append(w.cases, verifyCase{group: "racy", name: fmt.Sprintf("progen-%d", pseed), src: src,
			opts: scverify.Options{Procs: 2, CSE: true}})
		kept++
	}
	if kept < racyCount {
		return fmt.Errorf("seed %d: only %d of %d candidates are usable racy programs, want %d", seed, kept, racyCandidates, racyCount)
	}

	weakened := func(name, file string, lvl splitc.Level, sched []scverify.Schedule, pairs ...delay.Pair) {
		w.cases = append(w.cases, verifyCase{group: "weakened", name: name, src: litmus(file), violation: true,
			opts: scverify.Options{Procs: 2, Levels: []splitc.Level{lvl}, Weaken: pairs, Schedules: sched}})
	}
	weakened("dekker-both", "sb", splitc.LevelPipelined, scverify.Schedules(10), delay.Pair{A: 0, B: 1}, delay.Pair{A: 3, B: 4})
	weakened("mp-write-post", "mp", splitc.LevelPipelined, heavyJitter(200), delay.Pair{A: 0, B: 1})
	weakened("mp-wait-read", "mp", splitc.LevelPipelined, scverify.Schedules(10), delay.Pair{A: 2, B: 3})
	weakened("barrier-store-drain", "bar", splitc.LevelOneWay, scverify.Schedules(10), delay.Pair{A: 0, B: 1})

	for i := range w.cases {
		rep, err := w.verdict(&w.cases[i])
		if err != nil {
			return err
		}
		w.runs += rep.Runs()
		if rep.Enum != nil {
			w.states += rep.Enum.States
		}
	}
	return nil
}

func (w *verifyMix) start(lt *layerTrace) error { return nil }

// verdict runs one case and compares the verdict with the known answer.
func (w *verifyMix) verdict(c *verifyCase) (*scverify.Report, error) {
	rep, err := scverify.Verify(c.src, c.opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.name, err)
	}
	cycles := 0
	for _, lr := range rep.Levels {
		cycles += len(lr.Violations)
	}
	switch {
	case c.violation && cycles == 0:
		return nil, fmt.Errorf("%s: weakened delay not caught by an ordering cycle", c.name)
	case !c.violation && !rep.OK():
		return nil, fmt.Errorf("%s: flagged, want clean:\n%s", c.name, rep.Summary())
	case c.group == "racy" && !rep.ExactOracle:
		return nil, fmt.Errorf("%s: SC outcome set not enumerated exactly", c.name)
	}
	return rep, nil
}

func (w *verifyMix) op(tid, i int, lt *layerTrace) (string, error) {
	vals := map[string]float64{}
	runs := 0
	var first error
	for ci := range w.cases {
		c := &w.cases[ci]
		var id int
		if lt != nil {
			id = lt.tr.begin("Verify "+c.name, -1, i, tid)
		}
		rep, err := w.verdict(c)
		if lt != nil {
			vals["scverify.verdict_ms."+c.group] += ms(lt.tr.end(id))
		}
		if c.violation {
			w.weakened++
		}
		if err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		if c.violation {
			w.caught++
		}
		runs += rep.Runs()
	}
	if first == nil && runs != w.runs {
		first = fmt.Errorf("lap made %d runs, the warm-up lap %d", runs, w.runs)
	}
	if lt != nil {
		lt.add(vals)
	}
	return "", first
}

// probe replays laps with every Verify taken apart, the way Verify itself
// goes about it: the blocking reference compile, the reference run or the
// SC enumeration, then per level a compile, the bytecode compile, and one
// tapped run per schedule. What is left of the whole Verify's span is
// scverify's own share.
func (w *verifyMix) probe(lt *layerTrace) error {
	for rep := 0; rep < 3; rep++ {
		var compiles layerSums
		vals := map[string]float64{}
		var tapped []float64
		for ci := range w.cases {
			c := &w.cases[ci]
			id := lt.tr.begin("Verify "+c.name, -1, rep, 0)
			if _, err := w.verdict(c); err != nil {
				return err
			}
			whole := lt.tr.end(id)
			parts, err := w.replay(lt.tr, c, rep, &compiles, vals, &tapped)
			if err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			vals["scverify.check_self_ms"] += ms(whole - parts)
		}
		vals["interp.tapped_run_ms"] = median(tapped)
		lt.add(vals)
		lt.add(compiles.per(1)) // the lap's compiles, summed
	}
	return nil
}

// replay runs the parts of one Verify under spans, adds their layer values
// to compiles and vals, and returns the time the parts took together.
func (w *verifyMix) replay(tr *tracer, c *verifyCase, op int, compiles *layerSums, vals map[string]float64, tapped *[]float64) (time.Duration, error) {
	root := tr.begin("replay "+c.name, -1, op, 0)
	var parts time.Duration
	compile := func(opts splitc.Options) (*pass.Context, error) {
		pctx, layers, err := tracedCompile(tr, c.src, opts, root, op, 0)
		if err != nil {
			return nil, err
		}
		parts += layers.whole
		compiles.add(layers)
		return pctx, nil
	}
	part := func(name, key string, fn func() error) error {
		id := tr.begin(name, root, op, 0)
		err := fn()
		d := tr.end(id)
		parts += d
		if key != "" {
			vals[key] += ms(d)
		}
		return err
	}

	procs := c.opts.Procs
	cfg := machine.CM5(procs)
	ref, err := compile(splitc.Options{Procs: procs, Level: splitc.LevelBlocking})
	if err != nil {
		return 0, err
	}
	if c.opts.Deterministic {
		err = part("reference run", "", func() error {
			_, err := interp.Run(ref.Prog(), cfg, interp.RunOptions{})
			return err
		})
	} else {
		err = part("EnumerateSC", "interp.enum_ms", func() error {
			_, st, _ := interp.EnumerateSCStats(ref.Fn, procs, 1_000_000)
			vals["interp.enum_states"] += float64(st.States)
			vals["interp.enum_transitions"] += float64(st.Transitions)
			return nil
		})
	}
	if err != nil {
		return 0, err
	}

	levels := c.opts.Levels
	if levels == nil {
		levels = []splitc.Level{splitc.LevelBlocking, splitc.LevelPipelined, splitc.LevelOneWay}
	}
	schedules := c.opts.Schedules
	if schedules == nil {
		schedules = scverify.Schedules(6)
	}
	for _, lvl := range levels {
		prog, err := compile(splitc.Options{Procs: procs, Level: lvl, CSE: c.opts.CSE, Weaken: c.opts.Weaken})
		if err != nil {
			return 0, err
		}
		err = part("vm.Compile", "vm.compile_ms", func() error {
			code, err := vm.Compiled(prog.Prog())
			if err == nil {
				vals["vm.code_ops"] += float64(len(code.Code))
			}
			return err
		})
		if err != nil {
			return 0, err
		}
		for _, sch := range schedules {
			id := tr.begin("RunOne "+sch.String(), root, op, 0)
			_, _, err := scverify.RunOne(prog.Prog(), cfg, sch)
			d := tr.end(id)
			if err != nil {
				return 0, err
			}
			parts += d
			*tapped = append(*tapped, ms(d))
		}
	}
	tr.end(root)
	return parts, nil
}

func (w *verifyMix) report(r *result, sp *spec, ph *phase, lt *layerTrace) {
	r.setSpec(sp, "scverify.runs", float64(w.runs))
	r.setSpec(sp, "interp.enum_states", float64(w.states))
	if w.weakened > 0 {
		r.exact(sp, "scverify.weakened_caught_share", float64(w.caught)/float64(w.weakened))
	}
}

func (w *verifyMix) shutDown() {}
