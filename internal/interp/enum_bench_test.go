package interp_test

// Benchmarks for the SC outcome oracle: the partial-order-reduced model
// checker (BenchmarkEnumerateSC) against the same transition system
// explored unreduced with an exact visited set
// (BenchmarkEnumerateSCReference), on the same three programs. BENCH_enum.json records the reduced engine's allocation
// counts and cmd/benchgate holds it to them in CI.
//
// The programs cover the oracle's workload shapes: dekker is the
// sync-heavy store-buffering race (every shared access conflicts),
// postwait is event-ordered message passing, and progen64 is a generated
// program (seed 64 of the scverify grid) mixing loops, locks, and racy
// accesses.

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/progen"
)

const benchDekkerSrc = `
shared int X on 1 = 0;
shared int Y on 0 = 0;
shared int RX on 1 = 0;
shared int RY on 0 = 0;
func main() {
	if (MYPROC == 0) {
		X = 1;
		RY = Y;
	}
	if (MYPROC == 1) {
		Y = 1;
		RX = X;
	}
}
`

const benchPostwaitSrc = `
shared int X on 1 = 0;
shared int R on 1 = 0;
event E[2];
func main() {
	if (MYPROC == 0) {
		X = 7;
		post(E[1]);
	}
	if (MYPROC == 1) {
		wait(E[1]);
		R = X;
	}
}
`

func benchEnumFns(b *testing.B) map[string]*ir.Fn {
	b.Helper()
	return map[string]*ir.Fn{
		"dekker":   ir.MustBuild(benchDekkerSrc, ir.BuildOptions{Procs: 2}),
		"postwait": ir.MustBuild(benchPostwaitSrc, ir.BuildOptions{Procs: 2}),
		"progen64": ir.MustBuild(progen.Generate(64, progen.Options{Procs: 2}), ir.BuildOptions{Procs: 2}),
	}
}

func BenchmarkEnumerateSC(b *testing.B) {
	for _, name := range []string{"dekker", "postwait", "progen64"} {
		fn := benchEnumFns(b)[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var states int
			for i := 0; i < b.N; i++ {
				_, stats, ok := interp.EnumerateSCStats(fn, 2, 0)
				if !ok {
					b.Fatal("enumeration truncated")
				}
				states = stats.States
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}

func BenchmarkEnumerateSCReference(b *testing.B) {
	for _, name := range []string{"dekker", "postwait", "progen64"} {
		fn := benchEnumFns(b)[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var states int
			for i := 0; i < b.N; i++ {
				_, stats, ok := interp.EnumerateSCReferenceStats(fn, 2, 0)
				if !ok {
					b.Fatal("enumeration truncated")
				}
				states = stats.States
			}
			b.ReportMetric(float64(states), "states")
		})
	}
}
