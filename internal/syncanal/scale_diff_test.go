package syncanal

import (
	"os"
	"testing"

	"repro/internal/delay"
)

// TestAnalyzeMidsizeMatchesReference crosses the large-input activation
// thresholds of the delay engine (dense-region dispatch at 256 region
// members, the word-parallel restricted search at 512 accesses) inside the
// full pipeline, and requires pair-identical results against the per-pair
// reference engine. The small-seed differential suite never reaches these
// sizes; the test refuses to run on a program that does not.
func TestAnalyzeMidsizeMatchesReference(t *testing.T) {
	fn := scalingProgram(t, 640)
	got := Analyze(fn, Options{})
	if n := len(fn.Accesses); n < 512 || got.LargestRegion < 256 {
		t.Fatalf("program below the gates it exists to cross: %d accesses (want >= 512), largest region %d (want >= 256)",
			n, got.LargestRegion)
	}
	want := Analyze(fn, Options{reference: true})
	for _, s := range []struct {
		label     string
		got, want *delay.Set
	}{
		{"baseline", got.Baseline, want.Baseline},
		{"D1", got.D1, want.D1},
		{"D", got.D, want.D},
	} {
		identicalSets(t, s.label, s.got, s.want)
	}
	if got.R.Size() != want.R.Size() {
		t.Fatalf("|R| %d vs reference %d", got.R.Size(), want.R.Size())
	}
}

// TestScaleTierAnalysisPinned pins the full-pipeline result shape on the
// deterministic acc2048 tier — and, under PSC_SCALE_TIERS=1, acc8192 and
// acc32768 (about 2 GB of peak heap): region decomposition, the sizes of
// the baseline, D1, R and the refined delay set, and the class count of R
// must not drift. A changed size here means the engine produced different
// pairs at scale — precisely the regression the differential suites, whose
// oracle is affordable only to several hundred accesses, cannot see. A
// changed class count with |R| intact means refinement left the partition
// fragmented: 35 is the number of distinct R rows and columns at the 2k and
// 8k tiers, 39 at the 33k tier.
func TestScaleTierAnalysisPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second tier build in -short mode")
	}
	type pin struct {
		tier                    string
		regions, largest        int
		baseline, d1, r, d, rcl int
	}
	pins := []pin{{"acc2048", 3, 1700, 2019476, 1108695, 1821813, 1195464, 35}}
	if os.Getenv("PSC_SCALE_TIERS") != "" {
		pins = append(pins, pin{"acc8192", 3, 7751, 36097679, 19320041, 32707937, 20893293, 35},
			pin{"acc32768", 7, 30777, 564037270, 298553980, 514011989, 322033845, 39})
	}
	for _, p := range pins {
		res := Analyze(tierProgram(t, p.tier), Options{})
		if res.Regions != p.regions || res.LargestRegion != p.largest {
			t.Fatalf("%s: region decomposition drifted: %d regions, largest %d (want %d, %d)",
				p.tier, res.Regions, res.LargestRegion, p.regions, p.largest)
		}
		for _, s := range []struct {
			name      string
			got, want int
		}{
			{"|Baseline|", res.Baseline.Size(), p.baseline},
			{"|D1|", res.D1.Size(), p.d1},
			{"|R|", res.R.Size(), p.r},
			{"|D|", res.D.Size(), p.d},
			{"RClasses", res.RClasses, p.rcl},
		} {
			if s.got != s.want {
				t.Fatalf("%s: %s = %d, pinned %d", p.tier, s.name, s.got, s.want)
			}
		}
	}
}
