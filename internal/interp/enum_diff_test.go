package interp_test

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/progen"
)

// This file is the differential harness backing the partial-order-reduced
// model checker: on every program where the unreduced reference
// enumeration fits its budget, both engines must produce byte-identical
// outcome sets. Both explore the same steps (mcState.step), so what this
// checks is the reduction and the fingerprinted visited set. The cases
// are the hand-written racy negatives (Dekker store buffering, post/wait
// message passing, barrier publication), the five paper kernels at small
// configurations, and a progen seed grid.

// diffSrcs are the hand-written programs from the scverify negative suite
// (TestWeakenedFlagged): each has a genuinely racy or sync-ordered shape
// whose exact SC outcome set is the point of the test.
var diffSrcs = []struct {
	name string
	src  string
}{
	{"dekker", `
shared int X on 1 = 0;
shared int Y on 0 = 0;
shared int RX on 1 = 0;
shared int RY on 0 = 0;
func main() {
	if (MYPROC == 0) {
		X = 1;
		RY = Y;
	}
	if (MYPROC == 1) {
		Y = 1;
		RX = X;
	}
}
`},
	{"postwait", `
shared int X on 1 = 0;
shared int R on 1 = 0;
event E[2];
func main() {
	if (MYPROC == 0) {
		X = 7;
		post(E[1]);
	}
	if (MYPROC == 1) {
		wait(E[1]);
		R = X;
	}
}
`},
	{"barrier", `
shared int X on 1 = 0;
shared int R on 1 = 0;
func main() {
	if (MYPROC == 0) {
		X = 3;
	}
	barrier;
	if (MYPROC == 1) {
		R = X;
	}
}
`},
	{"lockinc", `
shared int C = 0;
lock m;
func main() {
	lock(m);
	local int t = C;
	C = t + 1;
	unlock(m);
	print("done", MYPROC);
}
`},
	{"pipebar", `
shared int A[4];
shared int S on 0 = 0;
func main() {
	A[MYPROC] = MYPROC + 1;
	barrier;
	if (MYPROC == 0) {
		local int i = 0;
		local int acc = 0;
		while (i < PROCS) {
			local int v = A[i];
			acc = acc + v;
			i = i + 1;
		}
		S = acc;
	}
}
`},
}

// diffEngines runs both enumerators and demands identical outcome sets.
// It returns the two stats blocks for reduction accounting. Programs
// whose reference exploration exceeds refBudget are skipped (the caller
// decides whether skipping is acceptable).
func diffEngines(t *testing.T, name string, fn *ir.Fn, procs, refBudget int) (por, ref interp.EnumStats, compared bool) {
	t.Helper()
	refOut, ref, refOK := interp.EnumerateSCReferenceStats(fn, procs, refBudget)
	if !refOK {
		t.Logf("%s: reference truncated at %d states; skipping comparison", name, ref.States)
		return interp.EnumStats{}, ref, false
	}
	porOut, por, porOK := interp.EnumerateSCStats(fn, procs, refBudget)
	if !porOK {
		t.Fatalf("%s: POR engine truncated (states=%d) on a program the reference finished (states=%d)",
			name, por.States, ref.States)
	}
	if len(porOut) != len(refOut) {
		t.Fatalf("%s: outcome set sizes differ: POR %d vs reference %d", name, len(porOut), len(refOut))
	}
	for k := range refOut {
		if !porOut[k] {
			t.Fatalf("%s: reference outcome missing from POR set:\n%s", name, k)
		}
	}
	for k := range porOut {
		if !refOut[k] {
			t.Fatalf("%s: POR outcome not in reference set:\n%s", name, k)
		}
	}
	if por.Outcomes != len(porOut) || ref.Outcomes != len(refOut) {
		t.Fatalf("%s: stats outcome counts disagree with the sets", name)
	}
	return por, ref, true
}

// FuzzEnumeratorsMatchReference is the SC verifier's oracle check: on the
// progen programs FuzzSCVerify verifies (two processors, the same seeds),
// wherever the unreduced reference finishes within 150,000 states the
// reduced enumerator must finish too, with the identical outcome set.
func FuzzEnumeratorsMatchReference(f *testing.F) {
	for _, seed := range []int64{1, 7, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, progSeed int64) {
		const procs = 2
		src := progen.Generate(progSeed, progen.Options{Procs: procs})
		fn := ir.MustBuild(src, ir.BuildOptions{Procs: procs})
		diffEngines(t, fmt.Sprintf("seed %d", progSeed), fn, procs, 150_000)
	})
}

// TestReferenceIsUnreducedAndExact: the reference shares the reduced
// engine's steps, so what it checks is the reduction itself. It must run
// none (no deterministic local steps) and visit strictly more states than
// the reduced engine on every hand-written program; a reference that
// quietly ran the reduced engine would fail here.
func TestReferenceIsUnreducedAndExact(t *testing.T) {
	for _, tc := range diffSrcs {
		fn := ir.MustBuild(tc.src, ir.BuildOptions{Procs: 2})
		_, ref, refOK := interp.EnumerateSCReferenceStats(fn, 2, 0)
		_, por, porOK := interp.EnumerateSCStats(fn, 2, 0)
		if !refOK || !porOK {
			t.Fatalf("%s: truncated (reference ok=%v, reduced ok=%v)", tc.name, refOK, porOK)
		}
		if ref.LocalSteps != 0 || ref.States <= por.States {
			t.Errorf("%s: reference %d states with %d local steps, reduced %d states: want no local steps and more states",
				tc.name, ref.States, ref.LocalSteps, por.States)
		}
	}
}

// TestEnumDiffHandwritten compares the engines on the hand-written sync
// idioms and asserts the POR engine's headline claim: at least 5x fewer
// states on the sync-heavy programs, with identical outcome sets.
func TestEnumDiffHandwritten(t *testing.T) {
	totalPOR, totalRef := 0, 0
	for _, tc := range diffSrcs {
		for _, procs := range []int{2, 3} {
			if procs > 2 && (tc.name == "dekker" || tc.name == "postwait") {
				continue // written for exactly two processors
			}
			fn := ir.MustBuild(tc.src, ir.BuildOptions{Procs: procs})
			por, ref, ok := diffEngines(t, fmt.Sprintf("%s/p%d", tc.name, procs), fn, procs, 2_000_000)
			if !ok {
				t.Fatalf("%s: reference must fit the budget on the hand-written cases", tc.name)
			}
			t.Logf("%s/p%d: POR %d states (%d transitions, %d local), reference %d states — %.1fx",
				tc.name, procs, por.States, por.Transitions, por.LocalSteps, ref.States,
				float64(ref.States)/float64(por.States))
			totalPOR += por.States
			totalRef += ref.States
		}
	}
	if totalPOR*5 > totalRef {
		t.Errorf("partial-order reduction below 5x on the sync suite: POR %d states vs reference %d",
			totalPOR, totalRef)
	}
}

// TestEnumDiffApps checks the engines on the five paper kernels at the
// smallest configuration (2 processors, scale 1). Where the unreduced
// reference fits a CI-feasible budget (EM3D, Cholesky, Health) the
// outcome sets must be byte-identical; Ocean and Epithel are exactly the
// programs the reference cannot enumerate (its state count is why this
// engine exists), so for every kernel we additionally require sampled SC
// schedules to land inside the POR outcome set — a one-sided check that
// still covers the two kernels the reference gives up on.
func TestEnumDiffApps(t *testing.T) {
	const procs = 2
	// Budgets sized so the heavy kernels skip quickly: the reference needs
	// ~1ms per Epithel state, so even 10k states would dominate the test.
	refBudgets := map[string]int{"Ocean": 10_000, "Epithel": 3_000}
	compared := 0
	for _, k := range apps.All() {
		budget := refBudgets[k.Name]
		if budget == 0 {
			budget = 50_000
		}
		fn := ir.MustBuild(k.Source(procs, 1), ir.BuildOptions{Procs: procs})
		por, ref, ok := diffEngines(t, k.Name, fn, procs, budget)
		if ok {
			compared++
			t.Logf("%s: POR %d states, reference %d states — %.1fx, %d outcomes",
				k.Name, por.States, ref.States, float64(ref.States)/float64(por.States), por.Outcomes)
		}
		// Sampled schedules must be explainable by the exact oracle.
		porOut, _, porOK := interp.EnumerateSCStats(fn, procs, 1_000_000)
		if !porOK {
			t.Errorf("%s: POR engine over budget at procs=2 scale=1", k.Name)
			continue
		}
		for seed := int64(0); seed < 20; seed++ {
			res, err := interp.RunSC(fn, procs, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", k.Name, seed, err)
			}
			if key := interp.OutcomeKey(res.Memory, res.Prints); !porOut[key] {
				t.Errorf("%s seed %d: sampled SC outcome missing from POR set:\n%s", k.Name, seed, key)
				break
			}
		}
	}
	if compared < 3 {
		t.Errorf("reference fit its budget on only %d/5 kernels; expected at least EM3D, Cholesky, Health", compared)
	}
}

// TestEnumDiffProgen sweeps generated programs. Every seed where the
// reference fits its budget must agree byte-for-byte; a minimum number of
// compared seeds guards against the reference silently timing out of the
// whole grid.
func TestEnumDiffProgen(t *testing.T) {
	const procs = 2
	seeds := int64(60)
	if testing.Short() {
		seeds = 20
	}
	shards := 4
	type tally struct{ compared, totalPOR, totalRef int }
	results := make([]tally, shards)
	for shard := 0; shard < shards; shard++ {
		shard := shard
		t.Run(fmt.Sprintf("shard%d", shard), func(t *testing.T) {
			t.Parallel()
			for seed := int64(shard); seed < seeds; seed += int64(shards) {
				src := progen.Generate(seed, progen.Options{Procs: procs})
				fn := ir.MustBuild(src, ir.BuildOptions{Procs: procs})
				por, ref, ok := diffEngines(t, fmt.Sprintf("seed%d", seed), fn, procs, 1_000_000)
				if !ok {
					continue
				}
				results[shard].compared++
				results[shard].totalPOR += por.States
				results[shard].totalRef += ref.States
			}
		})
	}
	t.Cleanup(func() {
		compared, totalPOR, totalRef := 0, 0, 0
		for _, r := range results {
			compared += r.compared
			totalPOR += r.totalPOR
			totalRef += r.totalRef
		}
		if compared < int(seeds)/2 {
			t.Errorf("reference fit the budget on only %d/%d progen seeds", compared, seeds)
		}
		t.Logf("progen: %d/%d seeds compared, POR %d states vs reference %d (%.1fx)",
			compared, seeds, totalPOR, totalRef, float64(totalRef)/float64(totalPOR+1))
	})
}
