package syncanal

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/ir"
	"repro/internal/progen"
	"repro/internal/sem"
	"repro/internal/source"
)

// scalingSizes are the access-count buckets of the analysis scaling study.
var scalingSizes = []int{64, 128, 256, 512}

// scalingProgram deterministically picks a progen program with roughly
// target accesses: fixed generator options scaled by target, first seed
// whose built function lands within [0.9, 1.25]x the target.
func scalingProgram(tb testing.TB, target int) *ir.Fn {
	tb.Helper()
	opts := progen.Options{
		Procs: 4, MaxPhases: 4, MaxStmts: target / 4, MaxDepth: 2,
		Arrays: 3, Scalars: 3, Events: 2, Locks: 2,
	}
	for seed := int64(0); seed < 500; seed++ {
		prog, err := source.Parse(progen.Generate(seed, opts))
		if err != nil {
			continue
		}
		info, err := sem.Check(prog)
		if err != nil {
			continue
		}
		fn, err := ir.Build(info, ir.BuildOptions{Procs: 4})
		if err != nil {
			continue
		}
		if n := len(fn.Accesses); n >= target*9/10 && n <= target*5/4 {
			return fn
		}
	}
	tb.Fatalf("no progen seed lands near %d accesses", target)
	return nil
}

// tierProgram builds the named progen scale tier (see progen.ScaleTiers):
// a pinned-seed program, so no seed scan happens at benchmark time.
func tierProgram(tb testing.TB, name string) *ir.Fn {
	tb.Helper()
	tier, ok := progen.FindScaleTier(name)
	if !ok {
		tb.Fatalf("unknown scale tier %q", name)
	}
	prog, err := source.Parse(progen.Generate(tier.Seed, tier.Opts))
	if err != nil {
		tb.Fatalf("%s: parse: %v", name, err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		tb.Fatalf("%s: sem: %v", name, err)
	}
	fn, err := ir.Build(info, ir.BuildOptions{Procs: tier.Opts.Procs})
	if err != nil {
		tb.Fatalf("%s: build: %v", name, err)
	}
	return fn
}

// analyzeLoop is the body of every BenchmarkAnalysisScaling leg: b.N full
// analyses, with the peak live heap they reached reported as "peak-MB". A
// sampler polls HeapAlloc every 5 ms while the loop runs, against a post-GC
// reading taken before it; a sampled peak is a lower bound (the poller can
// miss the true maximum between collections), but it tracks the matrix
// footprint closely enough to show what a tier needs — the figure ROADMAP
// item 3 asks for at 33k — and an asymptotic regression in row storage.
func analyzeLoop(b *testing.B, fn *ir.Fn) {
	b.ReportAllocs()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	base, peak := m.HeapAlloc, m.HeapAlloc
	done, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var s runtime.MemStats
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			runtime.ReadMemStats(&s)
			peak = max(peak, s.HeapAlloc)
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Analyze(fn, Options{})
	}
	b.StopTimer()
	close(done)
	<-stopped
	runtime.ReadMemStats(&m)
	b.ReportMetric(float64(max(peak, m.HeapAlloc)-base)/1e6, "peak-MB")
}

// BenchmarkAnalysisScaling measures the full synchronization analysis
// (conflict set, baseline + D1 + refined delay sets, precedence closure)
// on progen programs of growing size. The small sizes scan for a seed; the
// large tiers come from the pinned progen.ScaleTiers programs.
func BenchmarkAnalysisScaling(b *testing.B) {
	for _, size := range scalingSizes {
		fn := scalingProgram(b, size)
		b.Run(fmt.Sprintf("acc%d", size), func(b *testing.B) { analyzeLoop(b, fn) })
	}
	if os.Getenv("PSC_SCALE_TIERS") == "" {
		b.Log("set PSC_SCALE_TIERS=1 to run the multi-minute scale tiers")
		return
	}
	for _, name := range []string{"acc2048", "acc8192", "acc32768"} {
		fn := tierProgram(b, name)
		b.Run(name, func(b *testing.B) { analyzeLoop(b, fn) })
	}
}
