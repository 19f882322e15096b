package codegen

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/delay"
	"repro/internal/ir"
	"repro/internal/progen"
	"repro/internal/syncanal"
	"repro/internal/target"
)

// roundRobinAvail is the availability fixpoint as a plain round-robin:
// every block but the entry, in ascending ID order, sweep after sweep until
// one changes nothing, each list copied fresh. availFixpoint replaced it in
// the product; it stays as availFixpoint's reference. It also returns how
// many transfer-function runs and sweeps it took.
func roundRobinAvail(g *Generator) (fl *availFlow, scans, sweeps int) {
	blocks := g.prog.Blocks
	nb := len(blocks)
	fl = &availFlow{in: make([][]availEntry, nb), out: make([][]availEntry, nb), known: make([]bool, nb)}
	preds := make([][]int, nb)
	for _, b := range blocks {
		b.ForSuccs(func(s *target.Block) { preds[s.ID] = append(preds[s.ID], b.ID) })
	}
	fl.known[0] = true
	fl.out[0] = slices.Clone(g.transfer(nil, blocks[0], false))
	scans++
	for changed := true; changed; {
		changed = false
		sweeps++
		for bi := 1; bi < nb; bi++ {
			var meet []availEntry
			any := false
			for _, p := range preds[bi] {
				if !fl.known[p] {
					continue
				}
				if !any {
					meet, any = fl.out[p], true
				} else {
					meet = intersectAvail(nil, meet, fl.out[p])
				}
			}
			if !any {
				continue
			}
			newOut := slices.Clone(g.transfer(meet, blocks[bi], false))
			scans++
			if !fl.known[bi] || !sameAvail(fl.in[bi], meet) || !sameAvail(fl.out[bi], newOut) {
				fl.in[bi], fl.out[bi], fl.known[bi] = meet, newOut, true
				changed = true
			}
		}
	}
	return fl, scans, sweeps
}

// watchWork sums the work every pass reports until the test ends.
func watchWork(t testing.TB) *passWork {
	w := &passWork{}
	workHook = func(p passWork) {
		w.ReuseScans += p.ReuseScans
		w.ReuseSweeps += p.ReuseSweeps
		w.LICMLoops += p.LICMLoops
		w.LICMVisits += p.LICMVisits
	}
	t.Cleanup(func() { workHook = nil })
	return w
}

// reuseCase is one program with its analysed delay set.
type reuseCase struct {
	name   string
	fn     *ir.Fn
	delays *delay.Set
	opts   Options
}

// oneWayCase analyses fn and returns the options of a oneway + CSE
// compile.
func oneWayCase(name string, fn *ir.Fn) reuseCase {
	res := syncanal.Analyze(fn, syncanal.Options{})
	return reuseCase{name, fn, res.D, Options{Pipeline: true, OneWay: true, CSE: true, Hoist: true}}
}

// acc2048 builds the pinned 2k scale tier.
func acc2048(t testing.TB) *ir.Fn {
	tier, ok := progen.FindScaleTier("acc2048")
	if !ok {
		t.Fatal("no acc2048 scale tier")
	}
	return ir.MustBuild(progen.Generate(tier.Seed, tier.Opts), ir.BuildOptions{Procs: tier.Opts.Procs})
}

// reuseStep is cse's index in the step table.
func reuseStep() int {
	for i, s := range steps {
		if s.Name == "cse" {
			return i
		}
	}
	panic("no cse step")
}

// runSteps runs the steps of list that g's options enable.
func runSteps(g *Generator, list []Step) {
	for _, s := range list {
		if s.Enabled(g.opts) {
			s.run(g)
		}
	}
}

// beforeReuse runs the steps ahead of cse.
func beforeReuse(c reuseCase) *Generator {
	g := New(c.fn, c.delays, c.opts)
	runSteps(g, steps[:reuseStep()])
	return g
}

// afterReuse runs the steps after cse and returns the target text.
func afterReuse(g *Generator) string {
	runSteps(g, steps[reuseStep()+1:])
	return g.prog.String()
}

// checkReuse holds availFixpoint to the round-robin on one program: every
// block's reached flag and entry and exit lists, order and representative
// access included, and then the target text and statistics of the whole
// compile with cse rewriting from either fixpoint.
func checkReuse(t *testing.T, c reuseCase) {
	t.Helper()
	ref := beforeReuse(c)
	want, _, _ := roundRobinAvail(ref)
	got := beforeReuse(c).availFixpoint()
	for b := range want.known {
		switch {
		case got.known[b] != want.known[b]:
			t.Fatalf("%s: block %d reached %v, the round-robin says %v", c.name, b, got.known[b], want.known[b])
		case !sameAvail(got.in[b], want.in[b]):
			t.Fatalf("%s: block %d enters with %s, the round-robin with %s", c.name, b, availString(got.in[b]), availString(want.in[b]))
		case !sameAvail(got.out[b], want.out[b]):
			t.Fatalf("%s: block %d leaves with %s, the round-robin with %s", c.name, b, availString(got.out[b]), availString(want.out[b]))
		}
	}
	for b, blk := range ref.prog.Blocks {
		ref.transfer(want.in[b], blk, true)
	}
	prod := beforeReuse(c)
	prod.cse()
	if wantText, gotText := afterReuse(ref), afterReuse(prod); gotText != wantText {
		t.Fatalf("%s: target text differs from the round-robin's\n--- round-robin ---\n%s--- worklist ---\n%s", c.name, wantText, gotText)
	}
	if ref.stats != prod.stats {
		t.Fatalf("%s: stats %+v, the round-robin's %+v", c.name, prod.stats, ref.stats)
	}
}

func availString(l []availEntry) string {
	s := "["
	for i, e := range l {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("a%d->l%d", e.acc.ID, e.dst)
	}
	return s + "]"
}

// TestGlobalReuseMatchesRoundRobin: the worklist fixpoint is the
// round-robin's, list for list, on the five kernels at 4 and 64
// processors, 150 generated programs and the 2k tier.
func TestGlobalReuseMatchesRoundRobin(t *testing.T) {
	for _, k := range apps.All() {
		for _, procs := range []int{4, 64} {
			fn := ir.MustBuild(k.Source(procs, 1), ir.BuildOptions{Procs: procs})
			checkReuse(t, oneWayCase(fmt.Sprintf("%s/p%d", k.Name, procs), fn))
		}
	}
	for seed := int64(0); seed < 150; seed++ {
		fn := ir.MustBuild(progen.Generate(seed, progen.Options{Procs: 4}), ir.BuildOptions{Procs: 4})
		checkReuse(t, oneWayCase(fmt.Sprintf("progen seed %d", seed), fn))
	}
	if testing.Short() {
		t.Skip("the 2k tier in -short mode")
	}
	checkReuse(t, oneWayCase("acc2048", acc2048(t)))
}

// TestCodegenWorkAcc2048 pins the work of cse's fixpoint and LICM in a
// oneway + CSE compile of the 2k tier, in counts that repeat exactly on
// any host. The round-robin ran the transfer function 26,067 times in 33
// sweeps on the same input; the worklist takes as many sweeps, since a
// change still travels one back edge per sweep, but revisits a block only
// when a predecessor's exit list changed: 1,649 runs (1,879 before the
// delay set's kill rule, which leaves shorter lists that settle sooner;
// the round-robin's count did not move). LICM walks the 643
// body blocks of its 239 loops with a preheader, where it used to test all
// 1,400 blocks of the program for membership per loop (334,600 tests).
func TestCodegenWorkAcc2048(t *testing.T) {
	if testing.Short() {
		t.Skip("the 2k tier in -short mode")
	}
	c := oneWayCase("acc2048", acc2048(t))
	if n := len(c.fn.Blocks); n != 1400 {
		t.Fatalf("acc2048 has %d blocks; the pins are for 1,400", n)
	}
	_, scans, sweeps := roundRobinAvail(beforeReuse(c))
	if scans != 26067 || sweeps != 33 {
		t.Errorf("round-robin: %d scans in %d sweeps, want 26,067 in 33", scans, sweeps)
	}
	w := watchWork(t)
	Generate(c.fn, c.delays, c.opts)
	want := passWork{ReuseScans: 1649, ReuseSweeps: 33, LICMLoops: 239, LICMVisits: 643}
	if *w != want {
		t.Errorf("work %+v, want %+v", *w, want)
	}
}
