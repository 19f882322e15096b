package syncanal

import (
	"testing"

	"repro/internal/delay"
	"repro/internal/ir"
	"repro/internal/progen"
	"repro/internal/sem"
	"repro/internal/source"
)

// buildSrc compiles program text to IR, or nil when any front-end stage
// rejects it.
func buildSrc(src string, procs int) *ir.Fn {
	prog, err := source.Parse(src)
	if err != nil {
		return nil
	}
	info, err := sem.Check(prog)
	if err != nil {
		return nil
	}
	fn, err := ir.Build(info, ir.BuildOptions{Procs: procs})
	if err != nil {
		return nil
	}
	return fn
}

// TestOrientedSyncSubsetOfD1 verifies the sync-pass-redundancy theorem the
// single collapsed orientation pass relies on (see the steps 5-6 comment
// in RefineSync): a sync-involving pair oriented-and-removed is searched
// in a strict edge-subgraph of D1's instance — orientation only drops
// directed conflict edges and the endpoint filter is identical — so the
// oriented sync pass must compute a subset of D1. The oriented sync pairs
// are taken both ways — the engine's oriented query keeping sync
// endpoints, and the reference engine's filtered pair by pair — and both
// are held to the containment on every buildable seed of the grid.
func TestOrientedSyncSubsetOfD1(t *testing.T) {
	opts := progen.Options{
		Procs: 4, MaxPhases: 4, MaxStmts: 10, MaxDepth: 2,
		Arrays: 3, Scalars: 3, Events: 2, Locks: 2,
	}
	checked := 0
	for seed := int64(0); seed < 150; seed++ {
		src := progen.Generate(seed, opts)
		fn := buildSrc(src, 4)
		if fn == nil || len(fn.Accesses) == 0 {
			continue
		}
		res := Analyze(fn, Options{})
		var syncIDs []int
		for _, a := range fn.Accesses {
			if a.Kind.IsSync() {
				syncIDs = append(syncIDs, a.ID)
			}
		}
		if len(syncIDs) == 0 {
			continue
		}
		orientDir := func(x, y int) bool { return !res.R.has(y, x) }
		keepSync := delay.EndpointFilter{IDs: syncIDs, Keep: true}
		for _, p := range delay.Compute(res.AG, res.CS, delay.Constraints{ConflictDir: orientDir, Endpoints: keepSync}).Pairs() {
			if !res.D1.Has(p.A, p.B) {
				t.Fatalf("seed %d: oriented sync pair [%d,%d] outside D1", seed, p.A, p.B)
			}
		}
		for _, p := range delay.ComputeReference(res.AG, res.CS, delay.Constraints{ConflictDir: orientDir}).Pairs() {
			sync := fn.Accesses[p.A].Kind.IsSync() || fn.Accesses[p.B].Kind.IsSync()
			if sync && !res.D1.Has(p.A, p.B) {
				t.Fatalf("seed %d reference: oriented sync pair [%d,%d] outside D1", seed, p.A, p.B)
			}
		}
		checked++
	}
	if checked < 80 {
		t.Fatalf("only %d of 150 seeds had sync accesses and built, want >= 80", checked)
	}
}

// TestOrientedSyncSubsetOfD1Tier pins the containment on the 2k-access
// scale tier, where the batched sweeps actually stream off class rows.
func TestOrientedSyncSubsetOfD1Tier(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second tier check in -short mode")
	}
	fn := tierProgram(t, "acc2048")
	res := Analyze(fn, Options{})
	var syncIDs []int
	for _, a := range fn.Accesses {
		if a.Kind.IsSync() {
			syncIDs = append(syncIDs, a.ID)
		}
	}
	orientDir := func(x, y int) bool { return !res.R.has(y, x) }
	oriented := delay.Compute(res.AG, res.CS, delay.Constraints{
		ConflictDir: orientDir, Endpoints: delay.EndpointFilter{IDs: syncIDs, Keep: true}})
	missing := 0
	for _, p := range oriented.Pairs() {
		if !res.D1.Has(p.A, p.B) {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("acc2048: %d of %d oriented sync pairs outside D1 (|D1|=%d)",
			missing, oriented.Size(), res.D1.Size())
	}
}
