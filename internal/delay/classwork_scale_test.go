package delay_test

import (
	"fmt"
	"testing"

	"repro/internal/delay"
	"repro/internal/ir"
	"repro/internal/progen"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/syncanal"
)

// editBaseFn builds the program of the serve-mix benchmark's first edit
// session: progen seed 2 under the benchmark's edit-base options (restated
// here), at 4 processors: a program under 512 accesses whose oriented pass
// class-solves one 306-member region and many small ones.
func editBaseFn(t *testing.T) *ir.Fn {
	t.Helper()
	opts := progen.Options{Procs: 4, MaxPhases: 12, MaxStmts: 48, Arrays: 4, Scalars: 4, Events: 3, Locks: 2}
	prog, err := source.Parse(progen.Generate(2, opts))
	if err != nil {
		t.Fatalf("edit base: parse: %v", err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("edit base: sem: %v", err)
	}
	fn, err := ir.Build(info, ir.BuildOptions{Procs: opts.Procs})
	if err != nil {
		t.Fatalf("edit base: build: %v", err)
	}
	return fn
}

// TestClassSolveWorkAcc2048 pins classSolve's work with counts, which
// repeat exactly on any host: per analysis, over every region of the
// oriented pass, how many pairs the per-pair loop visits, how many removal
// cells it decides (and how many of those the bracket keeps), how many
// restricted searches the pairs of open cells run (and how many of those
// find a back-path), and the shared searches behind the cells (closures,
// forests, forest keeps, fallbacks) — identical at one worker and at three.
// It pins acc2048, whose 1,700-member region dominates, and the serve-mix
// edit base, a small program of many regions. Asked back-path first, the
// acc2048 analysis decided 184,100 cells in its largest region; asking the
// cell first may decide cells no back-path would have reached, and the
// test bounds that region's cells at 1 % more.
func TestClassSolveWorkAcc2048(t *testing.T) {
	if testing.Short() {
		t.Skip("two tier analyses in -short mode")
	}
	saved := delay.Workers
	defer func() { delay.Workers = saved }()
	acc2048 := delay.ClassWork{Pairs: 225300, Cells: 72815, BracketKeeps: 12111, PairSearches: 156, PairHits: 156,
		Closures: 2247, Forests: 776, ForestKeeps: 11856, Fallbacks: 309, RowScans: 42244}
	for _, in := range []struct {
		name    string
		fn      *ir.Fn
		largest int
		want    delay.ClassWork
	}{
		{"acc2048", delay.TierFn(t, "acc2048"), 1700, acc2048},
		{"serve-mix edit base", editBaseFn(t), 306,
			delay.ClassWork{Pairs: 12238, Cells: 8083, BracketKeeps: 1672, PairSearches: 75, PairHits: 60,
				Closures: 526, Forests: 203, ForestKeeps: 1591, Fallbacks: 144, RowScans: 9235}},
	} {
		for _, nw := range []int{1, 3} {
			delay.Workers = nw
			got := delay.WatchClassWork(t)
			if res := syncanal.Analyze(in.fn, syncanal.Options{}); res.LargestRegion != in.largest {
				t.Fatalf("%s: largest region %d, want %d", in.name, res.LargestRegion, in.largest)
			}
			if got.ClassWork != in.want {
				t.Fatalf("%s, workers=%d: classSolve work %+v, want %+v", in.name, nw, got.ClassWork, in.want)
			}
			if limit := 184100 * 101 / 100; in.name == "acc2048" && got.RegionCells > limit {
				t.Fatalf("%d removal cells decided in acc2048's largest region, want <= %d (1.01 x the 184,100 of the back-path-first order)", got.RegionCells, limit)
			}
		}
	}
}

// TestSharedCellsMatchBracket is the differential of classSolve's shared
// searches: every cell the closure and the forest decide is decided again
// by cellRestrict's bracket, which decides every cell whose cover has no
// id, at one worker and at three. On acc2048 and the serve-mix edit base
// that is every cell of the oriented pass; on the dense progen region it is
// the cells of the classed variant with cover ids.
func TestSharedCellsMatchBracket(t *testing.T) {
	if testing.Short() {
		t.Skip("two tier analyses in -short mode")
	}
	saved := delay.Workers
	defer func() { delay.Workers = saved }()
	ag, cs, con := delay.DenseSharedCase(t)
	for _, in := range []struct {
		name    string
		run     func()
		checked int
	}{
		{"acc2048", func() { syncanal.Analyze(delay.TierFn(t, "acc2048"), syncanal.Options{}) }, 72815},
		{"serve-mix edit base", func() { syncanal.Analyze(editBaseFn(t), syncanal.Options{}) }, 8083},
		{"dense progen", func() { delay.Compute(ag, cs, con) }, -1},
	} {
		for _, nw := range []int{1, 3} {
			delay.Workers = nw
			t.Run(fmt.Sprintf("%s/workers=%d", in.name, nw), func(t *testing.T) {
				check := delay.CheckSharedCells(t)
				in.run()
				if got := check.Cells(); in.checked >= 0 && got != in.checked || in.checked < 0 && got == 0 {
					t.Fatalf("%d cells checked, want %d (-1: some)", got, in.checked)
				}
			})
		}
	}
}
