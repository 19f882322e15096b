package interp

import "testing"

// TestSchedRNG pins what the simulator assumes of its generator: a draw is
// in [0, 1) — a priority of exactly 1 would put a delivery in the resume
// band (see alloc) — and the seeds a schedule grid counts through start
// streams that differ from their first draw.
func TestSchedRNG(t *testing.T) {
	first := map[float64]int64{}
	for seed := int64(0); seed < 200; seed++ {
		var g schedRNG
		g.seed(seed)
		for i := 0; i < 10_000; i++ {
			f := g.Float64()
			if f < 0 || f >= 1 {
				t.Fatalf("seed %d draw %d = %v, want a value in [0, 1)", seed, i, f)
			}
			if i == 0 {
				if other, dup := first[f]; dup {
					t.Fatalf("seeds %d and %d both draw %v first", other, seed, f)
				}
				first[f] = seed
			}
		}
	}
	// The largest value the conversion can produce, whatever the counter.
	if f := float64(^uint64(0)>>11) / (1 << 53); f >= 1 {
		t.Fatalf("all-ones output converts to %v, want below 1", f)
	}
}
