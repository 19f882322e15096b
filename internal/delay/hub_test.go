package delay

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/conflict"
	"repro/internal/graph"
	"repro/internal/ir"
)

// TestHubWorkAcc2048 pins the hub solver's work at the 2k tier with counts,
// which repeat exactly on any host, at one worker and at three: the plain
// Shasha–Snir query, step 2's D1 (the pairs with a synchronization
// endpoint; 660 of the 2,010 accesses are sync) and the remainder (the
// pairs with none). The endpoint filter splits the candidates, so D1's and
// the remainder's add up to the baseline's, and no pair is searched twice;
// the groups with no considered pair skip their base sweep. The three sets
// are checked to partition the same way.
func TestHubWorkAcc2048(t *testing.T) {
	if testing.Short() {
		t.Skip("three 2k-tier delay sets in -short mode")
	}
	defer func(w int) { Workers = w }(Workers)
	fn := tierFn(t, "acc2048")
	ag := ir.BuildAccessGraph(fn)
	cs := conflict.Compute(fn)
	syncIDs := syncIDsOf(fn)
	if len(fn.Accesses) != 2010 || len(syncIDs) != 660 {
		t.Fatalf("acc2048 has %d accesses, %d of them sync; the pins are for 2010 and 660", len(fn.Accesses), len(syncIDs))
	}
	base := HubWork{Candidates: 1820759, BaseSweeps: 25, AvoidSearches: 61, AvoidHits: 26, Cells: 46868, Covered: 229}
	d1 := HubWork{Candidates: 1005762, BaseSweeps: 25, AvoidSearches: 61, AvoidHits: 26, Cells: 27661, Covered: 229}
	rest := HubWork{Candidates: 814997, BaseSweeps: 16, Cells: 19207}
	if d1.Candidates+rest.Candidates != base.Candidates {
		t.Fatalf("D1 %d + remainder %d candidates != baseline %d", d1.Candidates, rest.Candidates, base.Candidates)
	}
	for _, nw := range []int{1, 3} {
		Workers = nw
		run := func(name string, f EndpointFilter, want HubWork) *Set {
			w := WatchHubWork(t)
			s := Compute(ag, cs, Constraints{Endpoints: f})
			if got := w.Queries(); len(got) != 1 || got[0].Work != want {
				t.Fatalf("%s, workers=%d: hub queries %+v, want one doing %+v", name, nw, got, want)
			}
			return s
		}
		whole := run("baseline", EndpointFilter{}, base)
		keep := run("D1", EndpointFilter{IDs: syncIDs, Keep: true}, d1)
		skip := run("remainder", EndpointFilter{IDs: syncIDs}, rest)
		checkPartition(t, fmt.Sprintf("acc2048 workers=%d", nw), keep, skip, whole)
	}
}

// The hub solver's exact arm: a candidate a without a self-conflict edge
// whose pool witnesses all sit under a in the base first-visit tree — the
// tree cannot tell whether some member of T(a) is reachable around a, so
// the cell screen leaves the pair open and one exact avoid-search decides.
// In both programs b is the final write of Y, the base sweep enters through
// the read of Y at the top, a is the read of X (its T(a) the writes of X
// below it), and the first-visit path to every write of X runs through a.
// Each test checks that the search ran and what it found.

// hubSearches runs the plain query on one program and returns its pairs
// and the hub solver's exact avoid-searches and hits.
func hubSearches(t *testing.T, ag *ir.AccessGraph, cs *conflict.Set) (*Set, int, int) {
	t.Helper()
	w := WatchHubWork(t)
	got := Compute(ag, cs, Constraints{})
	q := w.Queries()
	if len(q) != 1 {
		t.Fatalf("hub queries %+v, want one", q)
	}
	return got, q[0].Work.AvoidSearches, q[0].Work.AvoidHits
}

// TestHubAvoidSearchFindsPathAroundA: the long else-branch is a second
// route from the sweep's entry to the writes of X that never touches a, so
// [a, b] has a back-path even though every pool witness is a tree
// descendant of a: the exact search finds it.
func TestHubAvoidSearchFindsPathAroundA(t *testing.T) {
	fn, ag, cs := setup(t, `
shared int X;
shared int Y;
shared int Z;
func main() {
    local int v = Y;    // a0: b's conflict partner, the sweep's entry
    if (v > 0) {
        v = X;          // a1 = a
    } else {
        v = Z;          // a2..a5: the detour, longer than the path through a
        v = Z;
        v = Z;
        v = Z;
    }
    X = 1;              // a6: first witness, first visited from a
    X = 2;              // a7: second witness, under a6
    Y = 1;              // a8 = b
}
`, 0)
	if len(fn.Accesses) != 9 {
		t.Fatalf("program has %d accesses, the test is written for 9", len(fn.Accesses))
	}
	got, searches, hits := hubSearches(t, ag, cs)
	if searches != 2 || hits != 2 {
		t.Errorf("hub ran %d exact avoid-searches with %d hits, want 2 and 2", searches, hits)
	}
	pairsEqual(t, "hub detour", got, ComputeReference(ag, cs, Constraints{}))
	if !got.Has(1, 8) {
		t.Errorf("missing delay [read X -> write Y]: the detour reaches the writes of X around a\n%s", got)
	}
}

// TestHubAvoidSearchAllPathsThroughA: without the detour every route from
// the sweep's entry to a write of X passes through a, and a walk may not
// use its own endpoint as an interior node: no back-path.
func TestHubAvoidSearchAllPathsThroughA(t *testing.T) {
	fn, ag, cs := setup(t, `
shared int X;
shared int Y;
func main() {
    local int v = Y;    // a0: the sweep's entry
    v = X;              // a1 = a
    X = 1;              // a2, a3: T(a), reachable only through a
    X = 2;
    Y = 1;              // a4 = b
}
`, 0)
	if len(fn.Accesses) != 5 {
		t.Fatalf("program has %d accesses, the test is written for 5", len(fn.Accesses))
	}
	got, searches, hits := hubSearches(t, ag, cs)
	if searches != 2 || hits != 1 {
		t.Errorf("hub ran %d exact avoid-searches with %d hits, want 2 and 1", searches, hits)
	}
	pairsEqual(t, "hub no detour", got, ComputeReference(ag, cs, Constraints{}))
	if got.Has(1, 4) {
		t.Errorf("unexpected delay [read X -> write Y]: every path to a write of X runs through a\n%s", got)
	}
}

// scanWitnesses is the per-target scan witnessSpan replaced: each witness
// entry time, in pool order, is screened against b's subtree interval
// [lo, hi] when b is base-visited, and the survivors' extremes kept.
func scanWitnesses(w []int32, inVis bool, lo, hi int32) (st uint8, mn, mx int32) {
	if len(w) == 0 {
		return cellFalse, 0, 0
	}
	st = cellNone
	for _, t := range w {
		if inVis && lo <= t && t <= hi {
			continue
		}
		if st != cellSome {
			st, mn, mx = cellSome, t, t
		} else if t < mn {
			mn = t
		} else if t > mx {
			mx = t
		}
	}
	return st, mn, mx
}

// TestWitnessSpanMatchesScan checks the hub solver's per-sweep cell summary
// — two binary searches into the witnesses sorted by entry time — against
// the per-target scan of the pools it replaced, on random multisets and
// intervals, with the edge cases named: no witness, every witness inside
// subtree(b), duplicates on both bounds of the interval, and b not
// base-visited. A witness here is its own entry time (tin is the identity).
func TestWitnessSpanMatchesScan(t *testing.T) {
	entry := make([]int32, 16)
	for i := range entry {
		entry[i] = int32(i)
	}
	check := func(w []int32, inVis bool, lo, hi int32) {
		t.Helper()
		pools := slices.Clone(w)
		sorted := slices.Clone(w)
		slices.Sort(sorted)
		gs, gmn, gmx := witnessSpan(sorted, entry, inVis, lo, hi)
		ws, wmn, wmx := scanWitnesses(pools, inVis, lo, hi)
		if gs != ws || gmn != wmn || gmx != wmx {
			t.Fatalf("witnesses %v, visited %v, subtree [%d, %d]: span (%d, %d, %d), scan (%d, %d, %d)",
				w, inVis, lo, hi, gs, gmn, gmx, ws, wmn, wmx)
		}
	}
	check(nil, true, 3, 7)
	check(nil, false, 3, 7)
	check([]int32{3, 5, 7}, true, 3, 7)          // every witness inside
	check([]int32{3, 3, 7, 7, 5}, true, 3, 7)    // duplicates on both bounds, all inside
	check([]int32{2, 3, 3, 7, 7, 8}, true, 3, 7) // duplicates on both bounds, one outside each side
	check([]int32{3, 3, 7, 7, 9, 9}, true, 3, 7)
	check([]int32{1, 1, 3, 3, 7, 7}, true, 3, 7)
	check([]int32{4, 5, 6}, false, 3, 7) // b not visited: nothing screened
	check([]int32{5}, true, 5, 5)
	check([]int32{5}, true, 6, 9)
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20000; trial++ {
		w := make([]int32, rng.Intn(9))
		for i := range w {
			w[i] = int32(rng.Intn(16))
		}
		lo := int32(rng.Intn(16))
		hi := lo + int32(rng.Intn(16-int(lo)))
		check(w, rng.Intn(4) != 0, lo, hi)
	}
}

// TestCoveringChainMatchesIntervalTest holds the hub solver's covering-chain
// walk to the interval test over every member that it replaced: in each
// cellSome cell, the candidate members the walk sends back to the
// per-member test must be exactly those whose base-tree interval covers the
// witness span [mn, mx]. It runs the plain query and step 2's D1 on the
// 150-seed grid and, outside -short, on acc2048, where D1's cells send 228
// members back.
func TestCoveringChainMatchesIntervalTest(t *testing.T) {
	var (
		mu             sync.Mutex
		cells, covered int
		diff           string
	)
	coveringHook = func(cand []uint64, members []memberWord, btin, btout []int32, mn, mx int32, chain []int32) {
		// The walk took its members out of cand: put them back.
		was := slices.Clone(cand)
		for _, a := range chain {
			graph.BitSet(was, int(a))
		}
		var want []int32
		for _, mw := range members {
			for m := was[mw.i] & mw.m; m != 0; m &= m - 1 {
				if a := mw.i<<6 + int32(bits.TrailingZeros64(m)); btin[a] <= mn && mx <= btout[a] {
					want = append(want, a)
				}
			}
		}
		got := slices.Clone(chain)
		slices.Sort(got)
		mu.Lock()
		defer mu.Unlock()
		cells++
		covered += len(want)
		if !slices.Equal(got, want) && diff == "" {
			diff = fmt.Sprintf("span [%d, %d]: the chain walk sent back %v, the interval test covers %v", mn, mx, got, want)
		}
	}
	defer func() { coveringHook = nil }()
	fns := []*ir.Fn{}
	for _, p := range gridPrograms(t) {
		fns = append(fns, p.fn)
	}
	if !testing.Short() {
		fns = append(fns, tierFn(t, "acc2048"))
	}
	for _, fn := range fns {
		ag, cs := ir.BuildAccessGraph(fn), conflict.Compute(fn)
		Compute(ag, cs, Constraints{})
		Compute(ag, cs, Constraints{Endpoints: EndpointFilter{IDs: syncIDsOf(fn), Keep: true}})
	}
	if diff != "" {
		t.Fatal(diff)
	}
	if covered == 0 {
		t.Fatalf("%d cellSome cells and no covering member: the walk was never exercised", cells)
	}
	t.Logf("%d cellSome cells, %d covering members", cells, covered)
}
