package delay

import "testing"

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
