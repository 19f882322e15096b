package delay

import (
	"fmt"
	"testing"

	"repro/internal/conflict"
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
	base := HubWork{Candidates: 1820759, BaseSweeps: 111, CutSweeps: 13}
	d1 := HubWork{Candidates: 1005762, BaseSweeps: 111, CutSweeps: 13}
	rest := HubWork{Candidates: 814997, BaseSweeps: 100, CutSweeps: 0}
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

// The hub solver's last arm: a candidate a that the cut sweep visited, that
// has no self-conflict edge, and whose per-group first two witnesses all sit
// under a in the first-visit tree — the tree cannot tell whether some
// member of T(a) is reachable around a, so one exact avoid-search decides.
// In both programs b is the final write of Y, the sweep enters through the
// read of Y at the top, a is the read of X (its T(a) the writes of X below
// it), and the first-visit path to every write of X runs through a.

// TestHubAvoidSearchFindsPathAroundA: the long else-branch is a second
// route from the sweep's entry to the writes of X that never touches a, so
// [a, b] has a back-path even though every first-visit witness is a tree
// descendant of a.
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
	got := ShashaSnir(ag, cs)
	pairsEqual(t, "hub detour", got, Compute(ag, cs, Constraints{Reference: true}))
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
	got := ShashaSnir(ag, cs)
	pairsEqual(t, "hub no detour", got, Compute(ag, cs, Constraints{Reference: true}))
	if got.Has(1, 4) {
		t.Errorf("unexpected delay [read X -> write Y]: every path to a write of X runs through a\n%s", got)
	}
}
