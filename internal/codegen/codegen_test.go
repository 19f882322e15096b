package codegen

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/syncanal"
	"repro/internal/target"
)

// compile runs the full pipeline: build IR, analyze, generate under D.
func compile(t *testing.T, src string, procs int, opts Options) (*Result, *syncanal.Result) {
	t.Helper()
	fn := ir.MustBuild(src, ir.BuildOptions{Procs: procs})
	res := syncanal.Analyze(fn, syncanal.Options{})
	return Generate(fn, res.D, opts), res
}

// stmtSeq flattens the program into a list of printable statements for
// structural assertions.
func stmtSeq(p *target.Prog) []string {
	var out []string
	for _, b := range p.Blocks {
		for _, s := range b.Stmts {
			out = append(out, p.StmtString(s))
		}
	}
	return out
}

func indexOfPrefix(seq []string, prefix string, from int) int {
	for i := from; i < len(seq); i++ {
		if strings.HasPrefix(seq[i], prefix) {
			return i
		}
	}
	return -1
}

func TestBlockingLowering(t *testing.T) {
	r, _ := compile(t, `
shared int X;
func main() {
    local int v = X;
    X = v + 1;
}
`, 0, Options{Pipeline: false})
	seq := stmtSeq(r.Prog)
	gi := indexOfPrefix(seq, "get_ctr", 0)
	if gi < 0 || !strings.HasPrefix(seq[gi+1], "sync_ctr") {
		t.Fatalf("blocking mode should place sync right after get:\n%s", r.Prog)
	}
	pi := indexOfPrefix(seq, "put_ctr", 0)
	if pi < 0 || !strings.HasPrefix(seq[pi+1], "sync_ctr") {
		t.Fatalf("blocking mode should place sync right after put:\n%s", r.Prog)
	}
}

func TestSyncStopsAtUse(t *testing.T) {
	r, _ := compile(t, `
shared int X;
func main() {
    local int v = X;
    local int a = 1;
    local int b = a + 2;
    local int c = v + b;
}
`, 0, Options{Pipeline: true})
	seq := stmtSeq(r.Prog)
	gi := indexOfPrefix(seq, "get_ctr", 0)
	si := indexOfPrefix(seq, "sync_ctr", gi)
	ui := -1
	for i, s := range seq {
		if strings.Contains(s, "= (") && strings.Contains(s, "t1") {
			ui = i
		}
	}
	if gi < 0 || si < 0 {
		t.Fatalf("get or sync missing:\n%s", r.Prog)
	}
	// The sync moved past the unrelated locals but before the use.
	if si == gi+1 {
		t.Errorf("sync did not move:\n%s", r.Prog)
	}
	if ui >= 0 && si > ui {
		t.Errorf("sync after use:\n%s", r.Prog)
	}
}

func TestSyncDuplicationAcrossBranch(t *testing.T) {
	// The Figure 8 shape: the fetched value is used inside a conditional,
	// and a delayed write follows on the fall-through path. The sync is
	// duplicated: one copy before the use, one before the delayed write.
	r, _ := compile(t, `
shared int X;
shared int Z;
func main() {
    local int v = 0;
    if (MYPROC == 0) {
        local int x = X;      // get
        local int y = 2;
        if (MYPROC < 4) {
            y = x + 1;        // use in branch
        }
        Z = 1;                // delayed write (cycle through reader side)
    } else {
        v = Z;
        X = 2;
    }
}
`, 0, Options{Pipeline: true})
	seq := stmtSeq(r.Prog)
	// Expect at least two syncs for the get's counter: the counter of the
	// get is the one named in its line.
	gi := indexOfPrefix(seq, "get_ctr", 0)
	if gi < 0 {
		t.Fatalf("no get:\n%s", r.Prog)
	}
	// extract counter name "cN"
	line := seq[gi]
	ctr := line[strings.Index(line, ", c")+2:]
	ctr = strings.Fields(ctr)[0]
	count := 0
	for _, s := range seq {
		if strings.HasPrefix(s, "sync_ctr "+ctr) {
			count++
		}
	}
	if count < 2 {
		t.Errorf("expected duplicated syncs for %s, got %d:\n%s", ctr, count, r.Prog)
	}
	// One of them must appear before the put to Z.
	pi := indexOfPrefix(seq, "put_ctr Z", 0)
	si := indexOfPrefix(seq, "sync_ctr "+ctr, 0)
	if pi >= 0 && (si < 0 || si > pi) {
		// the first sync may be the branch copy; check any sync before put
		ok := false
		for i := 0; i < pi; i++ {
			if strings.HasPrefix(seq[i], "sync_ctr "+ctr) {
				ok = true
			}
		}
		// The put may be in a later block than the branch copy; structural
		// order in stmtSeq follows block IDs, which matches layout here.
		if !ok {
			t.Errorf("no sync for %s before the delayed put:\n%s", ctr, r.Prog)
		}
	}
}

const phasedLoopSrc = `
shared float E[64];
shared float H[64];
func main() {
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

func TestPhasedLoopPipelineAndOneWay(t *testing.T) {
	r, _ := compile(t, phasedLoopSrc, 8, Options{Pipeline: true, OneWay: true})
	st := r.Prog.CollectStats()
	// Both writes are local-owned but still shared accesses; with one-way
	// conversion their completion is handled by the barrier.
	if st.Stores != 2 {
		t.Errorf("expected both puts converted to stores, got %d stores %d puts:\n%s",
			st.Stores, st.Puts, r.Prog)
	}
	if r.Stats.PutsConverted != 2 {
		t.Errorf("PutsConverted = %d, want 2", r.Stats.PutsConverted)
	}
	// The remote gets feed the local writes in the same iteration, so the
	// syncs sit before the writes (a use of the fetched value).
	if st.Gets != 2 {
		t.Errorf("expected 2 gets, got %d", st.Gets)
	}
}

func TestPhasedLoopBaselineBlocking(t *testing.T) {
	// With the Shasha-Snir baseline delays, the gets self-delay: the sync
	// cannot move past the next iteration's get, keeping them serialized.
	fn := ir.MustBuild(phasedLoopSrc, ir.BuildOptions{Procs: 8})
	res := syncanal.Analyze(fn, syncanal.Options{})
	r := Generate(fn, res.Baseline, Options{Pipeline: true, OneWay: true})
	if r.Stats.PutsConverted != 0 {
		t.Errorf("baseline delays should prevent one-way conversion, converted %d:\n%s",
			r.Stats.PutsConverted, r.Prog)
	}
}

func TestOneWayRequiresBarrierLanding(t *testing.T) {
	// A put whose sync lands before a post (not a barrier) stays a put.
	r, _ := compile(t, `
shared int X;
event e;
func main() {
    if (MYPROC == 0) {
        X = 1;
        post(e);
    } else {
        wait(e);
        local int v = X;
    }
}
`, 0, Options{Pipeline: true, OneWay: true})
	st := r.Prog.CollectStats()
	if st.Stores != 0 || st.Puts != 1 {
		t.Errorf("put before post must remain acknowledged: %+v\n%s", st, r.Prog)
	}
}

func TestOneWayAtProgramEnd(t *testing.T) {
	// A put with no observers drains at program exit: convertible.
	r, _ := compile(t, `
shared int A[16];
func main() {
    A[MYPROC] = 1;
}
`, 0, Options{Pipeline: true, OneWay: true})
	st := r.Prog.CollectStats()
	if st.Stores != 1 || st.Puts != 0 {
		t.Errorf("unobserved put should convert: %+v\n%s", st, r.Prog)
	}
}

func TestValueReuse(t *testing.T) {
	r, _ := compile(t, `
shared int X;
func main() {
    local int a = X;
    local int b = X;
    local int c = a + b;
}
`, 0, Options{Pipeline: true, CSE: true})
	if r.Stats.GetsCached != 1 {
		t.Errorf("GetsCached = %d, want 1:\n%s", r.Stats.GetsCached, r.Prog)
	}
	st := r.Prog.CollectStats()
	if st.Gets != 1 {
		t.Errorf("gets = %d, want 1:\n%s", st.Gets, r.Prog)
	}
}

func TestValueReuseBlockedByAcquire(t *testing.T) {
	r, _ := compile(t, `
shared int X;
event e;
func main() {
    local int a = X;
    wait(e);
    local int b = X;
    local int c = a + b;
}
`, 0, Options{Pipeline: true, CSE: true})
	if r.Stats.GetsCached != 0 {
		t.Errorf("reuse across a wait must not happen:\n%s", r.Prog)
	}
}

func TestValueReuseBlockedByIndexChange(t *testing.T) {
	r, _ := compile(t, `
shared int A[16];
func main() {
    local int i = MYPROC;
    local int a = A[i];
    i = i + 1;
    local int b = A[i];
    local int c = a + b;
}
`, 0, Options{Pipeline: true, CSE: true})
	if r.Stats.GetsCached != 0 {
		t.Errorf("reuse after index mutation must not happen:\n%s", r.Prog)
	}
}

func TestValuePropagation(t *testing.T) {
	r, _ := compile(t, `
shared int X;
func main() {
    local int v = MYPROC + 1;
    X = v;
    local int b = X;
    local int c = b * 2;
}
`, 0, Options{Pipeline: true, CSE: true})
	if r.Stats.GetsForwarded != 1 {
		t.Errorf("GetsForwarded = %d, want 1:\n%s", r.Stats.GetsForwarded, r.Prog)
	}
	st := r.Prog.CollectStats()
	if st.Gets != 0 {
		t.Errorf("the get should be forwarded away:\n%s", r.Prog)
	}
}

func TestWriteBack(t *testing.T) {
	r, _ := compile(t, `
shared int X;
func main() {
    X = 1;
    X = 2;
}
`, 0, Options{Pipeline: true, CSE: true})
	if r.Stats.PutsEliminated != 1 {
		t.Errorf("PutsEliminated = %d, want 1:\n%s", r.Stats.PutsEliminated, r.Prog)
	}
	st := r.Prog.CollectStats()
	if st.Puts+st.Stores != 1 {
		t.Errorf("one write should remain:\n%s", r.Prog)
	}
}

func TestWriteBackBlockedByRelease(t *testing.T) {
	r, _ := compile(t, `
shared int X;
event e;
func main() {
    if (MYPROC == 0) {
        X = 1;
        post(e);
        X = 2;
    } else {
        wait(e);
        local int v = X;
    }
}
`, 0, Options{Pipeline: true, CSE: true})
	if r.Stats.PutsEliminated != 0 {
		t.Errorf("write-back across a post must not happen:\n%s", r.Prog)
	}
}

func TestWriteBackBlockedByInterveningRead(t *testing.T) {
	r, _ := compile(t, `
shared int A[16];
func main() {
    local int j = MYPROC % 16;
    A[j] = 1;
    local int v = A[(j + 1) % 16];
    A[j] = 2;
    local int c = v;
}
`, 0, Options{Pipeline: true, CSE: true})
	// The read may alias A[j] (indices not provably distinct), so the
	// first put stays.
	if r.Stats.PutsEliminated != 0 {
		t.Errorf("write-back across a may-aliasing read must not happen:\n%s", r.Prog)
	}
}

func TestSameAddressOrderingKept(t *testing.T) {
	// Two puts to the same (statically unknown) address: the second must
	// not be initiated before the first completes, even pipelined.
	r, _ := compile(t, `
shared int A[16];
func main() {
    local int j = MYPROC % 16;
    A[j] = 1;
    local int pad = 0;
    A[(j + 16) % 16] = 2;
}
`, 0, Options{Pipeline: true})
	seq := stmtSeq(r.Prog)
	p1 := indexOfPrefix(seq, "put_ctr", 0)
	p2 := indexOfPrefix(seq, "put_ctr", p1+1)
	if p1 < 0 || p2 < 0 {
		t.Fatalf("expected two puts:\n%s", r.Prog)
	}
	syncBetween := false
	for i := p1 + 1; i < p2; i++ {
		if strings.HasPrefix(seq[i], "sync_ctr") {
			syncBetween = true
		}
	}
	if !syncBetween {
		t.Errorf("no sync between possibly-aliasing puts:\n%s", r.Prog)
	}
}

func TestStatsString(t *testing.T) {
	r, _ := compile(t, `
shared int X;
func main() {
    X = 1;
}
`, 0, Options{Pipeline: true})
	if r.Prog.String() == "" {
		t.Error("program should render")
	}
	st := r.Prog.CollectStats()
	if st.Puts != 1 {
		t.Errorf("stats = %+v, want 1 put", st)
	}
}

func TestSyncBeforeBranchOnFetchedValue(t *testing.T) {
	// A branch condition using the fetched value pins the sync before the
	// branch.
	r, _ := compile(t, `
shared int Flag;
func main() {
    local int v = Flag;
    if (v == 1) {
        local int x = 1;
    }
}
`, 0, Options{Pipeline: true})
	seq := stmtSeq(r.Prog)
	gi := indexOfPrefix(seq, "get_ctr", 0)
	si := indexOfPrefix(seq, "sync_ctr", 0)
	if gi < 0 || si < 0 {
		t.Fatalf("get/sync missing:\n%s", r.Prog)
	}
	// The sync must be in the same block as the get (before the branch).
	foundInBlock := false
	for _, b := range r.Prog.Blocks {
		hasGet, hasSync := false, false
		for _, s := range b.Stmts {
			if _, ok := s.(*target.Get); ok {
				hasGet = true
			}
			if _, ok := s.(*target.SyncCtr); ok {
				hasSync = true
			}
		}
		if hasGet && hasSync {
			foundInBlock = true
		}
	}
	if !foundInBlock {
		t.Errorf("sync not pinned before branch:\n%s", r.Prog)
	}
}

func TestDeadGetKeptWhenLiveInBranch(t *testing.T) {
	r, _ := compile(t, `
shared int X;
func main() {
    local int v = X;
    if (MYPROC == 0) {
        local int c = v;
    }
}
`, 0, Options{Pipeline: true, CSE: true})
	if st := r.Prog.CollectStats(); st.Gets != 1 {
		t.Errorf("get used in a branch must stay:\n%s", r.Prog)
	}
}

func TestDeadGetKeptAcrossLoop(t *testing.T) {
	r, _ := compile(t, `
shared int X;
func main() {
    local int v = 0;
    for (local int i = 0; i < 3; i = i + 1) {
        local int c = v + i;
        v = X;
    }
}
`, 0, Options{Pipeline: true, CSE: true})
	// v is read by the next iteration: the get is live. It is read ahead
	// of the get, so it must not be hoisted either: on the first
	// iteration c sees v's value from before the loop. Target blocks
	// mirror IR blocks, so a get left in place sits in its access's block.
	if st := r.Prog.CollectStats(); st.Gets != 1 {
		t.Errorf("loop-carried get must stay:\n%s", r.Prog)
	}
	for _, b := range r.Prog.Blocks {
		for _, s := range b.Stmts {
			if get, ok := s.(*target.Get); ok && get.Acc.Blk.ID != b.ID {
				t.Errorf("get of %s moved from b%d to b%d:\n%s", get.Acc, get.Acc.Blk.ID, b.ID, r.Prog)
			}
		}
	}
	if r.Stats.GetsHoistedLICM != 0 {
		t.Errorf("gets_hoisted_licm = %d, want 0", r.Stats.GetsHoistedLICM)
	}
}

func TestCounterSharing(t *testing.T) {
	// Three remote reads whose values are all first consumed at the same
	// statement: their syncs coincide and they share one counter.
	r, _ := compile(t, `
shared float S[8];
shared float D[8];
func main() {
    local float a = S[(MYPROC + 1) % 8];
    local float b = S[(MYPROC + 2) % 8];
    local float c = S[(MYPROC + 3) % 8];
    barrier;
    D[MYPROC] = a + b + c;
}
`, 8, Options{Pipeline: true, OneWay: true})
	if r.Stats.CountersShared == 0 {
		t.Errorf("expected counter sharing:\n%s", r.Prog)
	}
	// Shared counters emit a single sync at the shared position.
	st := r.Prog.CollectStats()
	if st.Syncs >= 4 {
		t.Errorf("expected deduplicated syncs, got %d:\n%s", st.Syncs, r.Prog)
	}
}

func TestCounterAllocationDense(t *testing.T) {
	// Counter IDs are renumbered densely from zero.
	r, _ := compile(t, `
shared int X;
shared int Y;
func main() {
    local int a = X;
    local int b = Y;
    local int c = a + b;
}
`, 0, Options{Pipeline: true})
	if r.Prog.Counters > 2 {
		t.Errorf("counters = %d, want <= 2:\n%s", r.Prog.Counters, r.Prog)
	}
}

func TestGlobalReuseAcrossIterations(t *testing.T) {
	// Figure 9/10: after the barrier, X is read-only for the phase; the
	// loop re-reads collapse to one fetch.
	r, _ := compile(t, `
shared int X;
shared int A[16];
func main() {
    if (MYPROC == 0) {
        X = 5;
    }
    barrier;
    local int s = 0;
    for (local int i = 0; i < 4; i = i + 1) {
        s = s + X;
    }
    A[MYPROC] = s;
}
`, 4, Options{Pipeline: true, CSE: true})
	if r.Stats.GetsHoistedLICM == 0 {
		t.Errorf("loop re-read of read-only X should hoist to the preheader:\n%s", r.Prog)
	}
	// The loop body fetches nothing anymore.
	st := r.Prog.CollectStats()
	if st.Gets != 1 {
		t.Errorf("gets = %d, want 1 after LICM:\n%s", st.Gets, r.Prog)
	}
}

func TestGlobalReuseBlockedByWritePhase(t *testing.T) {
	// X is rewritten inside the loop (by this processor): no caching of
	// the re-read.
	r, _ := compile(t, `
shared int X;
func main() {
    local int s = 0;
    for (local int i = 0; i < 4; i = i + 1) {
        s = s + X;
        X = s;
    }
}
`, 4, Options{Pipeline: true, CSE: true})
	if r.Stats.GetsCached != 0 {
		t.Errorf("re-read of rewritten X must not be cached:\n%s", r.Prog)
	}
}

func TestGlobalReuseBlockedByBarrierInLoop(t *testing.T) {
	// A barrier inside the loop re-exposes other processors' writes.
	r, _ := compile(t, `
shared int X;
func main() {
    local int s = 0;
    for (local int i = 0; i < 4; i = i + 1) {
        s = s + X;
        barrier;
    }
}
`, 4, Options{Pipeline: true, CSE: true})
	if r.Stats.GetsCached != 0 {
		t.Errorf("re-read across a barrier must not be cached:\n%s", r.Prog)
	}
}

func TestGlobalReuseAcrossBranchJoin(t *testing.T) {
	// Both paths fetch X into the same local before the join; the read
	// after the join reuses it.
	r, _ := compile(t, `
shared int X;
shared int A[8];
func main() {
    local int v = 0;
    if (MYPROC == 0) {
        v = X;
    } else {
        v = X;
    }
    local int w = X;
    A[MYPROC] = v + w;
}
`, 4, Options{Pipeline: true, CSE: true})
	if r.Stats.GetsCached == 0 {
		t.Errorf("join-point read should reuse the branch fetches:\n%s", r.Prog)
	}
}

func TestGlobalReuseNotAcrossOneArm(t *testing.T) {
	// Only one arm fetches X: the join read must stay.
	r, _ := compile(t, `
shared int X;
shared int A[8];
func main() {
    local int v = 0;
    if (MYPROC == 0) {
        v = X;
    }
    local int w = X;
    A[MYPROC] = v + w;
}
`, 4, Options{Pipeline: true, CSE: true})
	if r.Stats.GetsCached != 0 {
		t.Errorf("partial availability must not be reused:\n%s", r.Prog)
	}
}
