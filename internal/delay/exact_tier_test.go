package delay

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
)

// avoidReach is the exhaustive form of classSolve's exact tier, kept as the
// oracle for classFlow.reachAvoiding: it reports whether some node of the
// targets bitset is reachable from seeds over the dense adjacency out when
// BOTH cut and avoid have their in-edges deleted. Either may appear as a
// seed; a seed equal to cut is still expanded, matching the per-pair
// reference's treatment of the pair's own target b, while a seed equal to
// avoid is not. A target bit is accepted the moment it is generated —
// before the avoid/cut interior filter — mirroring the reference search,
// which tests "is this a conflict predecessor of a" before discarding a
// node as interior.
func avoidReach(out *graph.BitMatrix, seeds []int32, cut, avoid int, targets []uint64) bool {
	vis := make([]uint64, out.W)
	var st []int32
	for _, s := range seeds {
		if graph.BitGet(targets, int(s)) {
			return true
		}
		if int(s) == avoid {
			continue
		}
		if !graph.BitGet(vis, int(s)) {
			graph.BitSet(vis, int(s))
			st = append(st, s)
		}
	}
	cw, cm := cut>>6, uint64(1)<<(uint(cut)&63)
	aw, am := avoid>>6, uint64(1)<<(uint(avoid)&63)
	for len(st) > 0 {
		u := st[len(st)-1]
		st = st[:len(st)-1]
		row := out.Row(int(u))
		for wi := range vis {
			nw := row[wi] &^ vis[wi]
			if nw == 0 {
				continue
			}
			if nw&targets[wi] != 0 {
				return true
			}
			if wi == cw {
				nw &^= cm
			}
			if wi == aw {
				nw &^= am
			}
			vis[wi] |= nw
			for ; nw != 0; nw &= nw - 1 {
				st = append(st, int32(wi<<6+bits.TrailingZeros64(nw)))
			}
		}
	}
	return false
}

// ExactTierTally counts what WatchExactTier saw: tier-2 queries by verdict,
// how many had the target as a seed (cut tree = shared tree) and how many
// the source (skipped as a start node), and the first disagreement with
// avoidReach.
type ExactTierTally struct {
	mu             sync.Mutex
	True, False    int
	LbSeed, LaSeed int
	Mismatch       string
}

// TierFn and WatchExactTier are exported for the acc2048 differential, which
// needs syncanal's constraints and so lives in package delay_test.
var TierFn = tierFn

// WatchExactTier re-asks avoidReach every query classSolve's exact tier
// answers until the test ends.
func WatchExactTier(t testing.TB) *ExactTierTally {
	tally := &ExactTierTally{}
	exactTierHook = func(L *graph.BitMatrix, seeds []int32, lb, la int, targets []uint64, got bool) {
		want := avoidReach(L, seeds, lb, la, targets)
		tally.mu.Lock()
		defer tally.mu.Unlock()
		if got {
			tally.True++
		} else {
			tally.False++
		}
		for _, s := range seeds {
			if int(s) == lb {
				tally.LbSeed++
			}
			if int(s) == la {
				tally.LaSeed++
			}
		}
		if got != want && tally.Mismatch == "" {
			tally.Mismatch = fmt.Sprintf("lb=%d la=%d of %d nodes, %d seeds: confined search %v, exhaustive %v",
				lb, la, L.N, len(seeds), got, want)
		}
	}
	t.Cleanup(func() { exactTierHook = nil })
	return tally
}

// Require fails the test on a disagreement, or when the run did not reach
// tier 2 often enough on both verdicts for agreement to mean anything.
func (ty *ExactTierTally) Require(t testing.TB, label string, minTotal, minEach int) {
	t.Helper()
	if ty.Mismatch != "" {
		t.Fatalf("%s: %s", label, ty.Mismatch)
	}
	if ty.True+ty.False < minTotal || ty.True < minEach || ty.False < minEach {
		t.Fatalf("%s: exact tier reached %d times (%d true, %d false); need >= %d with >= %d of each verdict",
			label, ty.True+ty.False, ty.True, ty.False, minTotal, minEach)
	}
	t.Logf("%s: exact tier %d true / %d false, all as the exhaustive search; target a seed in %d, source a seed in %d",
		label, ty.True, ty.False, ty.LbSeed, ty.LaSeed)
}

// ClassWork is classSolve's work in classWork's units, exported for the
// acc2048 count test in package delay_test.
type ClassWork = classWork

// WatchClassWork sums the counts of every classSolve until the test ends.
// Compute solves its class regions one after another, so the hook is never
// called concurrently.
func WatchClassWork(t testing.TB) *ClassWork {
	sum := &ClassWork{}
	classWorkHook = sum.add
	t.Cleanup(func() { classWorkHook = nil })
	return sum
}

// TestExactTierMatchesAvoidReachDense drives classSolve over the three
// classed variants of TestDenseRegionMatchesReference, one worker and three,
// and checks whatever reaches tier 2 against the exhaustive search. These
// inputs settle nearly everything on the certificate tiers, so no count is
// demanded here; acc2048 (exact_tier_scale_test.go) and the constructed
// graphs below are where the tier is certain to run.
func TestExactTierMatchesAvoidReachDense(t *testing.T) {
	saved := Workers
	defer func() { Workers = saved }()
	denseReference(t)
	o := &denseOracle
	for _, v := range o.variants {
		if v.con.AccessClass == nil {
			continue
		}
		requireClassSolvePath(t, o.ag, v.con)
		for _, nw := range []int{1, 3} {
			Workers = nw
			tally := WatchExactTier(t)
			Compute(o.ag, o.cs, v.con)
			tally.Require(t, fmt.Sprintf("%s workers=%d", v.name, nw), 0, 0)
		}
	}
}

// randomFlowGraph returns a sparse random dense-adjacency graph of 24–63
// nodes (one to three out-edges a node, so first-visit trees are deep and
// cycles through any node common), its transpose, and three seeds.
func randomFlowGraph(seed int64) (L, lt *graph.BitMatrix, seedsRow []uint64, seeds []int32, rng *rand.Rand) {
	rng = rand.New(rand.NewSource(seed))
	nl := 24 + rng.Intn(40)
	L = graph.NewBitMatrix(nl)
	for u := 0; u < nl; u++ {
		for k := rng.Intn(3); k >= 0; k-- {
			L.Set(u, rng.Intn(nl))
		}
	}
	seedsRow = make([]uint64, L.W)
	for len(seeds) < 3 {
		if s := rng.Intn(nl); !graph.BitGet(seedsRow, s) {
			graph.BitSet(seedsRow, s)
			seeds = append(seeds, int32(s))
		}
	}
	return L, L.Transpose(), seedsRow, seeds, rng
}

// TestReachCutFromMatchesCutBFS holds the incrementally derived cut tree to
// its definition — the nodes a BFS from the seeds reaches with lb's
// in-edges deleted — for every non-seed lb of 40 random graphs. The case it
// exists for: a re-entered member of subtree(lb) with an edge back to lb.
// If the fixpoint follows that edge, lb and everything behind it re-enter
// and the tree over-approximates — extra delays on the certificate tiers,
// and wrong verdicts either way from the confined search, which trusts the
// tree where the exhaustive search did not. No pinned input shows it, so
// the test counts how often its graphs do.
func TestReachCutFromMatchesCutBFS(t *testing.T) {
	reentries := 0
	for seed := int64(0); seed < 40; seed++ {
		L, lt, seedsRow, seeds, _ := randomFlowGraph(seed)
		nl := L.N
		flowB, flowC := newClassFlow(nl), newClassFlow(nl)
		flowB.reach(L, seedsRow)
		for lb := 0; lb < nl; lb++ {
			if graph.BitGet(seedsRow, lb) {
				continue
			}
			flowC.reachCutFrom(L, lt, flowB, lb)
			vis := make([]uint64, L.W)
			queue := append([]int32(nil), seeds...)
			for _, s := range seeds {
				graph.BitSet(vis, int(s))
			}
			for len(queue) > 0 {
				u := int(queue[0])
				queue = queue[1:]
				for v := 0; v < nl; v++ {
					if L.Has(u, v) && v != lb && !graph.BitGet(vis, v) {
						graph.BitSet(vis, v)
						queue = append(queue, int32(v))
						if graph.BitGet(flowB.vis, lb) && inSubtree(flowB.vis, flowB.tin, flowB.tout, lb, v) && L.Has(v, lb) {
							reentries++
						}
					}
				}
			}
			for v := 0; v < nl; v++ {
				if got, want := graph.BitGet(flowC.vis, v), graph.BitGet(vis, v); got != want {
					t.Fatalf("seed %d, lb=%d: node %d in cut tree %v, reached by the cut BFS %v", seed, lb, v, got, want)
				}
			}
		}
	}
	if reentries < 50 {
		t.Fatalf("only %d re-entered subtree members carry an edge back to lb; the graphs no longer exercise the case", reentries)
	}
}

// TestReachCutFromLeavesTargetOut is that case at its smallest. Node 2 is
// first reached through lb = 1, re-entered through 4, and has an edge back
// to lb; node 3 hangs off lb alone. Cut at lb, the seed reaches 0, 2 and 4;
// a fixpoint that follows 2 -> 1 returns all five.
func TestReachCutFromLeavesTargetOut(t *testing.T) {
	L := graph.NewBitMatrix(5)
	for _, e := range [][2]int{{0, 1}, {0, 4}, {1, 2}, {1, 3}, {4, 2}, {2, 1}} {
		L.Set(e[0], e[1])
	}
	seedsRow := []uint64{1 << 0}
	flowB, flowC := newClassFlow(5), newClassFlow(5)
	flowB.reach(L, seedsRow)
	if !inSubtree(flowB.vis, flowB.tin, flowB.tout, 1, 2) || !inSubtree(flowB.vis, flowB.tin, flowB.tout, 1, 3) {
		t.Fatal("nodes 2 and 3 are not first reached through node 1; the case is not the one described")
	}
	flowC.reachCutFrom(L, L.Transpose(), flowB, 1)
	if got, want := flowC.vis[0], uint64(1<<0|1<<2|1<<4); got != want {
		t.Fatalf("cut tree holds nodes %05b, want %05b", got, want)
	}
}

// TestReachAvoidingMatchesAvoidReach asks classFlow.reachAvoiding and the
// exhaustive search the same question on random graphs, for every (target,
// source, witness set) that meets the contract the certificate tiers leave
// behind: no seed is a witness, the source is in the target's cut tree, and
// every tree node with an edge into a witness lies in the source's subtree.
// It demands both verdicts in each of the two shapes the confinement
// argument treats specially — the target a seed, so the cut tree is the
// shared tree itself, and the source a seed, skipped as a start node with
// everything first reached through it as its subtree — which acc2048 alone
// does not supply (its sources are never seeds).
func TestReachAvoidingMatchesAvoidReach(t *testing.T) {
	type shape struct{ lbSeed, laSeed, verdict bool }
	seen := make(map[shape]int)
	for seed := int64(0); seed < 40; seed++ {
		L, lt, seedsRow, seeds, rng := randomFlowGraph(seed)
		nl := L.N
		flowB, flowC := newClassFlow(nl), newClassFlow(nl)
		flowB.reach(L, seedsRow)
		targets := make([]uint64, L.W)
		p := make([]uint64, L.W)
		for lb := 0; lb < nl; lb++ {
			cut := flowB
			if !graph.BitGet(seedsRow, lb) {
				flowC.reachCutFrom(L, lt, flowB, lb)
				cut = flowC
			}
			for la := 0; la < nl; la++ {
				if !graph.BitGet(cut.vis, la) {
					continue
				}
				// Witnesses: non-seeds all of whose tree predecessors lie
				// in subtree(la), a random half of them.
				for i := range targets {
					targets[i], p[i] = 0, 0
				}
				for y := 0; y < nl; y++ {
					ok := !graph.BitGet(seedsRow, y) && rng.Intn(2) == 0
					for wi, word := range lt.Row(y) {
						for m := word & cut.vis[wi]; ok && m != 0; m &= m - 1 {
							ok = inSubtree(cut.vis, cut.tin, cut.tout, la, wi<<6+bits.TrailingZeros64(m))
						}
					}
					if ok {
						graph.BitSet(targets, y)
						for i, word := range lt.Row(y) {
							p[i] |= word
						}
					}
				}
				got := cut.reachAvoiding(L, lt, la, p)
				if want := avoidReach(L, seeds, lb, la, targets); got != want {
					t.Fatalf("seed %d, %d nodes, seeds %v, lb=%d la=%d: confined search %v, exhaustive %v",
						seed, nl, seeds, lb, la, got, want)
				}
				seen[shape{graph.BitGet(seedsRow, lb), graph.BitGet(seedsRow, la), got}]++
			}
		}
	}
	for _, sh := range []shape{
		{false, false, false}, {false, false, true},
		{true, false, false}, {true, false, true},
		{false, true, false}, {false, true, true},
	} {
		if seen[sh] < 20 {
			t.Fatalf("shape %+v met %d times, want >= 20 (all: %v)", sh, seen[sh], seen)
		}
	}
	t.Logf("queries by shape: %v", seen)
}
