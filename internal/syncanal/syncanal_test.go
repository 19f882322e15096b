package syncanal

import (
	"testing"

	"repro/internal/ir"
)

func analyze(t *testing.T, src string, procs int, opts Options) *Result {
	t.Helper()
	fn := ir.MustBuild(src, ir.BuildOptions{Procs: procs})
	return Analyze(fn, opts)
}

// findAccess returns the ID of the i-th access with the given kind and
// symbol name (i counts from 0).
func findAccess(t *testing.T, fn *ir.Fn, kind ir.AccessKind, sym string, i int) int {
	t.Helper()
	seen := 0
	for _, a := range fn.Accesses {
		name := ""
		if a.Sym != nil {
			name = a.Sym.Name
		}
		if a.Kind == kind && name == sym {
			if seen == i {
				return a.ID
			}
			seen++
		}
	}
	t.Fatalf("access %s %s #%d not found", kind, sym, i)
	return -1
}

// Figure 5 of the paper: post-wait synchronization removes the delays
// among the data accesses on each side.
const figure5 = `
shared int X;
shared int Y;
event F;
func main() {
    local int r = 0;
    if (MYPROC == 0) {
        X = 1;       // a1 in the paper
        Y = 2;       // a2
        post(F);     // a3
    } else {
        wait(F);     // a4
        r = Y;       // a5
        r = X;       // a6
    }
}
`

func TestFigure5PostWait(t *testing.T) {
	res := analyze(t, figure5, 0, Options{})
	fn := res.Fn
	wX := findAccess(t, fn, ir.AccWrite, "X", 0)
	wY := findAccess(t, fn, ir.AccWrite, "Y", 0)
	post := findAccess(t, fn, ir.AccPost, "F", 0)
	wait := findAccess(t, fn, ir.AccWait, "F", 0)
	rY := findAccess(t, fn, ir.AccRead, "Y", 0)
	rX := findAccess(t, fn, ir.AccRead, "X", 0)

	// The baseline (Shasha-Snir) serializes the writes and the reads.
	if !res.Baseline.Has(wX, wY) {
		t.Errorf("baseline should delay [write X -> write Y]\n%s", res.Baseline)
	}
	if !res.Baseline.Has(rY, rX) {
		t.Errorf("baseline should delay [read Y -> read X]\n%s", res.Baseline)
	}
	// Post-wait seeds R and the refinement orders the conflict edges.
	if !res.R.has(post, wait) {
		t.Fatal("R should contain the post->wait edge")
	}
	if !res.R.has(wX, rX) || !res.R.has(wY, rY) {
		t.Errorf("R should derive write->read precedences via the dominator rule")
	}
	// The refined delay set keeps the sync-related delays...
	if !res.D.Has(wX, post) || !res.D.Has(wY, post) {
		t.Errorf("writes must still complete before the post\n%s", res.D)
	}
	if !res.D.Has(wait, rY) || !res.D.Has(wait, rX) {
		t.Errorf("reads must still wait for the wait\n%s", res.D)
	}
	// ...but the data-data delays are gone: this is the paper's point.
	if res.D.Has(wX, wY) {
		t.Errorf("delay [write X -> write Y] should be eliminated\n%s", res.D)
	}
	if res.D.Has(rY, rX) {
		t.Errorf("delay [read Y -> read X] should be eliminated\n%s", res.D)
	}
}

func TestFigure5AblationNoPostWait(t *testing.T) {
	res := analyze(t, figure5, 0, Options{NoPostWait: true})
	fn := res.Fn
	wX := findAccess(t, fn, ir.AccWrite, "X", 0)
	wY := findAccess(t, fn, ir.AccWrite, "Y", 0)
	if !res.D.Has(wX, wY) {
		t.Errorf("without post-wait analysis the write delay must remain\n%s", res.D)
	}
}

// The EM3D/Ocean shape: a time loop with two barrier-separated phases.
// Phase A reads remote H values; phase B writes own H values.
const phasedLoop = `
shared float E[64];
shared float H[64];
func main() {
    local int nl = 64 / PROCS;
    barrier;
    for (local int t = 0; t < 4; t = t + 1) {
        for (local int i = 0; i < 64 / PROCS; i = i + 1) {
            E[MYPROC * (64 / PROCS) + i] = H[(MYPROC * (64 / PROCS) + i + 1) % 64] * 0.5;
        }
        barrier;
        for (local int j = 0; j < 64 / PROCS; j = j + 1) {
            H[MYPROC * (64 / PROCS) + j] = E[(MYPROC * (64 / PROCS) + j + 1) % 64] * 0.5;
        }
        barrier;
    }
}
`

func TestPhasedLoopPipelines(t *testing.T) {
	res := analyze(t, phasedLoop, 8, Options{})
	fn := res.Fn
	gH := findAccess(t, fn, ir.AccRead, "H", 0)
	wE := findAccess(t, fn, ir.AccWrite, "E", 0)
	gE := findAccess(t, fn, ir.AccRead, "E", 0)
	wH := findAccess(t, fn, ir.AccWrite, "H", 0)

	// Baseline: the remote reads of H serialize against themselves
	// (through the conflicting writes of H in the other phase).
	if !res.Baseline.Has(gH, gH) {
		t.Errorf("baseline should self-delay the H reads\n%s", res.Baseline)
	}
	// With barrier phase analysis the reads pipeline freely.
	if res.D.Has(gH, gH) {
		t.Errorf("refined set should not self-delay the H reads\n%s", res.D)
	}
	if res.D.Has(gE, gE) {
		t.Errorf("refined set should not self-delay the E reads\n%s", res.D)
	}
	if res.D.Has(gH, wE) {
		t.Errorf("read H / write E touch different arrays in phase A; no delay expected\n%s", res.D)
	}
	// The phase-enforcing delays must survive: reads and writes complete
	// before the phase-ending barrier.
	foundReadToBarrier := false
	foundWriteToBarrier := false
	for _, p := range res.D.Pairs() {
		if p.A == gH && fn.Accesses[p.B].Kind == ir.AccBarrier {
			foundReadToBarrier = true
		}
		if p.A == wH && fn.Accesses[p.B].Kind == ir.AccBarrier {
			foundWriteToBarrier = true
		}
	}
	if !foundReadToBarrier {
		t.Errorf("read H must complete before some barrier\n%s", res.D)
	}
	if !foundWriteToBarrier {
		t.Errorf("write H must complete before some barrier\n%s", res.D)
	}
}

func TestPhasedLoopAblationNoBarrier(t *testing.T) {
	res := analyze(t, phasedLoop, 8, Options{NoBarrier: true})
	fn := res.Fn
	gH := findAccess(t, fn, ir.AccRead, "H", 0)
	if !res.D.Has(gH, gH) {
		t.Errorf("without barrier analysis the H reads must stay serialized\n%s", res.D)
	}
}

// Producer-consumer via post-wait in a loop (the Cholesky shape).
const prodCons = `
shared float A[64];
event ready[8];
func main() {
    local int nl = 64 / PROCS;
    if (MYPROC == 0) {
        for (local int j = 0; j < 8; j = j + 1) {
            A[j * 8] = itof(j);
            post(ready[j]);
        }
    } else {
        for (local int k = 0; k < 8; k = k + 1) {
            wait(ready[k]);
            local float v = A[k * 8];
        }
    }
}
`

func TestProducerConsumerPostWait(t *testing.T) {
	res := analyze(t, prodCons, 8, Options{})
	fn := res.Fn
	wA := findAccess(t, fn, ir.AccWrite, "A", 0)
	gA := findAccess(t, fn, ir.AccRead, "A", 0)
	post := findAccess(t, fn, ir.AccPost, "ready", 0)
	wait := findAccess(t, fn, ir.AccWait, "ready", 0)

	// Unique-post semantics let the same-symbol post/wait pair seed R.
	if !res.R.has(post, wait) {
		t.Fatal("R should match post(ready[j]) with wait(ready[k])")
	}
	if !res.R.has(wA, gA) {
		t.Errorf("R should order producer writes before consumer reads")
	}
	// Baseline self-delays the consumer reads (conflicting writes around).
	if !res.Baseline.Has(gA, gA) {
		t.Errorf("baseline should self-delay the consumer reads\n%s", res.Baseline)
	}
	// Refined: the consumer reads pipeline; writes still flush at post.
	if res.D.Has(gA, gA) {
		t.Errorf("consumer reads should pipeline\n%s", res.D)
	}
	if !res.D.Has(wA, post) {
		t.Errorf("producer write must complete before its post\n%s", res.D)
	}
}

// Lock-guarded critical section (the Health shape).
const lockedSection = `
shared int Total;
shared int Cnt;
lock m;
func main() {
    lock(m);
    Total = Total + MYPROC;
    Cnt = Cnt + 1;
    unlock(m);
}
`

func TestLockGuardedOverlap(t *testing.T) {
	res := analyze(t, lockedSection, 0, Options{})
	fn := res.Fn
	rT := findAccess(t, fn, ir.AccRead, "Total", 0)
	wT := findAccess(t, fn, ir.AccWrite, "Total", 0)
	rC := findAccess(t, fn, ir.AccRead, "Cnt", 0)
	wC := findAccess(t, fn, ir.AccWrite, "Cnt", 0)
	un := findAccess(t, fn, ir.AccUnlock, "m", 0)

	// All four data accesses are guarded by m.
	for _, id := range []int{rT, wT, rC, wC} {
		if !res.Guards[id]["m"] {
			t.Errorf("access a%d should be guarded by m (guards: %v)", id, res.Guards[id])
		}
	}
	// Baseline serializes the two updates.
	if !res.Baseline.Has(wT, rC) {
		t.Errorf("baseline should delay [write Total -> read Cnt]\n%s", res.Baseline)
	}
	// The lock rule overlaps the guarded accesses...
	if res.D.Has(wT, rC) {
		t.Errorf("guarded accesses should overlap\n%s", res.D)
	}
	// ...but everything still drains before the unlock.
	if !res.D.Has(wT, un) || !res.D.Has(wC, un) {
		t.Errorf("writes must complete before unlock\n%s", res.D)
	}
}

func TestLockAblation(t *testing.T) {
	res := analyze(t, lockedSection, 0, Options{NoLocks: true})
	fn := res.Fn
	wT := findAccess(t, fn, ir.AccWrite, "Total", 0)
	rC := findAccess(t, fn, ir.AccRead, "Cnt", 0)
	if !res.D.Has(wT, rC) {
		t.Errorf("without lock analysis the critical-section delays remain\n%s", res.D)
	}
	if len(res.Guards) != 0 {
		t.Error("guards should be empty with NoLocks")
	}
}

func TestUnguardedWhenNoUnlockDominated(t *testing.T) {
	// The access sits in one branch; the only unlock is at the join, which
	// the branch access does not dominate: condition 2 of section 5.3
	// fails and the access stays unguarded (conservatively).
	res := analyze(t, `
shared int X;
lock m;
func main() {
    lock(m);
    if (MYPROC == 0) {
        X = 1;
    }
    unlock(m);
}
`, 0, Options{})
	fn := res.Fn
	wX := findAccess(t, fn, ir.AccWrite, "X", 0)
	if res.Guards[wX]["m"] {
		t.Error("write X should not be guarded: it dominates no unlock")
	}
}

func TestRefinedNeverLargerThanBaseline(t *testing.T) {
	srcs := []string{figure5, phasedLoop, prodCons, lockedSection}
	for i, src := range srcs {
		res := analyze(t, src, 8, Options{})
		for _, p := range res.D.Pairs() {
			if !res.Baseline.Has(p.A, p.B) {
				t.Errorf("case %d: refined delay [%d,%d] not in baseline", i, p.A, p.B)
			}
		}
		if res.D.Size() >= res.Baseline.Size() && res.Baseline.Size() > 0 {
			// Every test program here is improvable.
			t.Errorf("case %d: no improvement: baseline %d, refined %d", i, res.Baseline.Size(), res.D.Size())
		}
	}
}

func TestPrecedenceBasics(t *testing.T) {
	r := newClassPrecedence(3)
	add := func(a, b int32) bool { return r.addRect([]int32{a}, []int32{b}) }
	if r.Size() != 0 || r.has(0, 1) {
		t.Fatal("fresh relation should be empty")
	}
	if !add(0, 1) || add(0, 1) {
		t.Error("addRect should report newness")
	}
	add(1, 2)
	if r.transClose() != true {
		t.Error("closure should add 0->2")
	}
	if !r.has(0, 2) {
		t.Error("transitive edge missing")
	}
	if r.transClose() {
		t.Error("second closure should be a fixpoint")
	}
	if r.Size() != 3 {
		t.Errorf("size = %d, want 3", r.Size())
	}
}

func TestSummary(t *testing.T) {
	res := analyze(t, figure5, 0, Options{})
	s := res.Summary()
	for _, want := range []string{"accesses", "baseline delays", "final delays", "precedence"} {
		if !contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && indexOf(s, sub) >= 0
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestExactMode(t *testing.T) {
	res := analyze(t, figure5, 0, Options{Exact: true})
	fn := res.Fn
	wX := findAccess(t, fn, ir.AccWrite, "X", 0)
	wY := findAccess(t, fn, ir.AccWrite, "Y", 0)
	if res.D.Has(wX, wY) {
		t.Errorf("exact mode should also eliminate the write-write delay\n%s", res.D)
	}
}

// TestFigure5ExactBaseline pins the paper's published DS&S for Figure 5:
// the six data-data delay edges listed in section 5.1 ("DS&S is
// {[a1,a2],[a1,a3],[a2,a3],[a4,a5],[a4,a6],[a5,a6]}", where in the paper's
// numbering a3/a4 are the post/wait). Our baseline additionally contains
// edges among synchronization accesses themselves (we model post and wait
// as conflicting accesses throughout, which the paper's illustrative list
// leaves implicit); the data-data projection must match the paper exactly.
func TestFigure5ExactBaseline(t *testing.T) {
	res := analyze(t, figure5, 0, Options{})
	fn := res.Fn
	wX := findAccess(t, fn, ir.AccWrite, "X", 0)
	wY := findAccess(t, fn, ir.AccWrite, "Y", 0)
	post := findAccess(t, fn, ir.AccPost, "F", 0)
	wait := findAccess(t, fn, ir.AccWait, "F", 0)
	rY := findAccess(t, fn, ir.AccRead, "Y", 0)
	rX := findAccess(t, fn, ir.AccRead, "X", 0)

	// Paper order: a1=wX, a2=wY, a3=post, a4=wait, a5=rY, a6=rX.
	want := map[[2]int]bool{
		{wX, wY}:   true, // [a1,a2]
		{wX, post}: true, // [a1,a3]
		{wY, post}: true, // [a2,a3]
		{wait, rY}: true, // [a4,a5]
		{wait, rX}: true, // [a4,a6]
		{rY, rX}:   true, // [a5,a6]
	}
	for p := range want {
		if !res.Baseline.Has(p[0], p[1]) {
			t.Errorf("baseline missing paper edge [a%d,a%d]", p[0], p[1])
		}
	}
	// No other edges between two data accesses.
	for _, p := range res.Baseline.Pairs() {
		a, b := fn.Accesses[p.A], fn.Accesses[p.B]
		if a.Kind.IsData() && b.Kind.IsData() && !want[[2]int{p.A, p.B}] {
			t.Errorf("unexpected data-data baseline edge [%s -> %s]", a, b)
		}
	}
}

// The pass pipeline runs the analysis as three separately-invokable
// sub-phases; their composition must reproduce Analyze exactly, and the
// sub-phase timings must be populated.
func TestSubPhasesMatchAnalyze(t *testing.T) {
	fn := ir.MustBuild(figure5, ir.BuildOptions{Procs: 2})
	whole := Analyze(fn, Options{})

	split := Prepare(fn)
	split.ComputeD1(Options{})
	split.RefineSync(Options{})

	if got, want := split.Baseline.Size(), whole.Baseline.Size(); got != want {
		t.Errorf("Baseline size %d != %d", got, want)
	}
	if got, want := split.D1.Size(), whole.D1.Size(); got != want {
		t.Errorf("D1 size %d != %d", got, want)
	}
	if got, want := split.D.Size(), whole.D.Size(); got != want {
		t.Errorf("D size %d != %d", got, want)
	}
	for _, p := range whole.D.Pairs() {
		if !split.D.Has(p.A, p.B) {
			t.Errorf("split D missing pair %d-%d", p.A, p.B)
		}
	}
	if got, want := split.R.Size(), whole.R.Size(); got != want {
		t.Errorf("R size %d != %d", got, want)
	}
}
