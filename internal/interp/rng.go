package interp

// schedRNG is the generator behind Jitter, Perturb and RunSC: SplitMix64
// (Steele, Lea and Flood, "Fast splittable pseudorandom number
// generators", 2014), a 64-bit counter stepped by the golden-ratio
// increment and read through a bijective finalizer. Its whole state is one
// word, so seeding a run is one store where math/rand's lagged-Fibonacci
// source fills 607 — more than a short tapped run costs. The zero value is
// a valid generator.
type schedRNG struct{ state uint64 }

const goldenGamma = 0x9e3779b97f4a7c15

func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// seed starts the stream of seed: the counter is the first output of a
// SplitMix64 whose own counter is the seed (the generator's split step).
// Schedule grids count seeds 0, 1, 2, …; taken as counters directly, those
// are streams one increment apart.
func (g *schedRNG) seed(seed int64) { g.state = mix64(uint64(seed) + goldenGamma) }

// Float64 returns the next draw, uniform in [0, 1): the top 53 bits.
func (g *schedRNG) Float64() float64 {
	g.state += goldenGamma
	return float64(mix64(g.state)>>11) / (1 << 53)
}
