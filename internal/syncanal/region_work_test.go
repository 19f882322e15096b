package syncanal

import "testing"

// TestRegionWorkAcc2048 pins the edges the region condensation visits at
// acc2048, a count that repeats exactly on any host. Routed one node per
// orient row class, it visits each program-order edge, one access->class
// edge per access and each class row's bits once: 2,749 + 2,010 + 67,186.
// Condensed one per-access row at a time, the same graph had 222,372
// edges. The decomposition it finds is TestScaleTierAnalysisPinned's.
func TestRegionWorkAcc2048(t *testing.T) {
	var edges []int
	regionWorkHook = func(e int) { edges = append(edges, e) }
	defer func() { regionWorkHook = nil }()
	fn := tierProgram(t, "acc2048")
	res := Analyze(fn, Options{})
	p := 0
	for _, succs := range res.AG.Succ {
		p += len(succs)
	}
	if p != 2749 || len(fn.Accesses) != 2010 {
		t.Fatalf("acc2048 has %d program-order edges and %d accesses, want 2749 and 2010", p, len(fn.Accesses))
	}
	if len(edges) != 1 || edges[0] != 2749+2010+67186 {
		t.Fatalf("region condensations visited %v edges, want one of %d", edges, 2749+2010+67186)
	}
	if res.Regions != 3 || res.LargestRegion != 1700 {
		t.Fatalf("%d regions, largest %d; want 3, 1700", res.Regions, res.LargestRegion)
	}
}
