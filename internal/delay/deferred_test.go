package delay_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	splitc "repro"
	"repro/internal/apps"
	"repro/internal/delay"
	"repro/internal/progen"
)

// d1Acc2048 and restAcc2048 are the hub solver's work on step 2's query and
// on the rest of the baseline at the 2k tier (TestHubWorkAcc2048 pins them
// against the plain query's).
var (
	d1Acc2048   = delay.HubWork{Candidates: 1005762, BaseSweeps: 111, AvoidSearches: 60, AvoidHits: 25}
	restAcc2048 = delay.HubWork{Candidates: 814997, BaseSweeps: 100}
)

// TestOneWayCompileSkipsTheRemainder: a one-way compile enforces D, which
// step 2's D1 feeds and the rest of the Shasha–Snir baseline does not, so
// compiling the 2k tier runs one hub query, D1's, and never the remainder.
// Reading the baseline afterwards runs the remainder once and yields the
// pinned |Baseline|.
func TestOneWayCompileSkipsTheRemainder(t *testing.T) {
	if testing.Short() {
		t.Skip("a 2k-tier compile in -short mode")
	}
	tier, _ := progen.FindScaleTier("acc2048")
	w := delay.WatchHubWork(t)
	p, err := splitc.Compile(progen.Generate(tier.Seed, tier.Opts), splitc.Options{Procs: tier.Opts.Procs, Level: splitc.LevelOneWay, CSE: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := w.Queries(), []delay.HubQuery{{Filter: "keep", Work: d1Acc2048}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("one-way compile ran hub queries %+v, want only D1's %+v", got, want)
	}
	if n := p.Analysis.Baseline.Size(); n != 2019476 {
		t.Fatalf("|Baseline| = %d, pinned 2019476", n)
	}
	if got, want := w.Queries()[1:], []delay.HubQuery{{Filter: "skip", Work: restAcc2048}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reading the baseline ran hub queries %+v, want the remainder's %+v", got, want)
	}
}

// TestConcurrentBaselineGeneratesFillOnce: eight goroutines generate
// LevelBaseline code from one Front at once, each reading the deferred
// baseline first thing; the remainder query runs exactly once between them.
func TestConcurrentBaselineGeneratesFillOnce(t *testing.T) {
	ctx := context.Background()
	opts := splitc.Options{Procs: 16, Level: splitc.LevelBaseline}
	src := apps.Ocean().Source(opts.Procs, 1)
	w := delay.WatchHubWork(t)
	front, err := splitc.NewFront(ctx, src, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := front.Generate(ctx, opts, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	var filters []string
	for _, q := range w.Queries() {
		filters = append(filters, q.Filter)
	}
	if want := []string{"keep", "skip"}; !reflect.DeepEqual(filters, want) {
		t.Fatalf("hub queries %v, want %v: D1's in NewFront, then the remainder once", filters, want)
	}
}
