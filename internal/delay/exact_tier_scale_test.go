package delay_test

import (
	"testing"

	"repro/internal/delay"
	"repro/internal/syncanal"
)

// TestExactTierMatchesAvoidReachAcc2048 is the differential on the one
// pinned input whose oriented passes reach classSolve's exact tier: the
// 1,700-member region of acc2048, 1,639 queries an analysis. Every verdict
// of the confined search must be the exhaustive search's, and the test
// fails unless the tier was reached at least 1,000 times with at least 100
// of each verdict — it cannot pass by never reaching the code. The analysis
// lives in syncanal, hence the external test package.
func TestExactTierMatchesAvoidReachAcc2048(t *testing.T) {
	if testing.Short() {
		t.Skip("tier analysis plus 1,639 exhaustive searches in -short mode")
	}
	fn := delay.TierFn(t, "acc2048")
	tally := delay.WatchExactTier(t)
	res := syncanal.Analyze(fn, syncanal.Options{})
	if res.LargestRegion != 1700 {
		t.Fatalf("largest region %d, want 1700", res.LargestRegion)
	}
	tally.Require(t, "acc2048", 1000, 100)
}
