package splitc_test

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation benches DESIGN.md calls out. Benchmarks print their tables once
// and report the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation. EXPERIMENTS.md records a full-size
// (64-processor) run produced with cmd/pscbench.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro"
	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/machine"
)

// benchProcs keeps `go test -bench` runs quick; cmd/pscbench runs the
// paper-size 64-processor configuration.
const benchProcs = 16

var printOnce sync.Map

func logOnce(b *testing.B, key, text string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		b.Logf("\n%s", text)
	}
}

// BenchmarkTable1 regenerates Table 1 (machine access latencies).
func BenchmarkTable1(b *testing.B) {
	var out string
	var err error
	for i := 0; i < b.N; i++ {
		out, err = bench.RunTable1()
		if err != nil {
			b.Fatal(err)
		}
	}
	logOnce(b, "table1", out)
}

// BenchmarkFigure12 regenerates Figure 12 (normalized execution times of
// the five kernels at the three optimization levels).
func BenchmarkFigure12(b *testing.B) {
	var res *bench.Fig12Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = bench.RunFigure12(benchProcs, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	logOnce(b, "fig12", res.Format())
	var gain float64
	for _, row := range res.Rows {
		gain += 1 - row.Cycles[splitc.LevelOneWay]/row.Cycles[splitc.LevelBaseline]
	}
	b.ReportMetric(gain/float64(len(res.Rows))*100, "mean-gain-%")
}

// BenchmarkFigure13 regenerates Figure 13 (Epithelial speedup curves).
func BenchmarkFigure13(b *testing.B) {
	procs := []int{1, 2, 4, 8, 16}
	var res *bench.Fig13Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = bench.RunFigure13(procs, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	logOnce(b, "fig13", res.Format())
	last := res.Points[len(res.Points)-1]
	first := res.Points[0]
	b.ReportMetric(first.Cycles[splitc.LevelOneWay]/last.Cycles[splitc.LevelOneWay], "oneway-speedup")
	b.ReportMetric(first.Cycles[splitc.LevelBaseline]/last.Cycles[splitc.LevelBaseline], "base-speedup")
}

// BenchmarkAblationDelaySets regenerates the delay-set ablation table.
func BenchmarkAblationDelaySets(b *testing.B) {
	var rows []bench.AblationRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = bench.RunDelayAblation(benchProcs, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	logOnce(b, "ablation", bench.FormatAblation(rows, benchProcs, 1))
	var base, refined float64
	for _, r := range rows {
		base += float64(r.Baseline)
		refined += float64(r.Refined)
	}
	b.ReportMetric((1-refined/base)*100, "delay-reduction-%")
}

// BenchmarkAblationMessages regenerates the message-count table
// (acknowledgement traffic eliminated by one-way conversion).
func BenchmarkAblationMessages(b *testing.B) {
	var rows []bench.MessageRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = bench.RunMessageAblation(benchProcs, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	logOnce(b, "messages", bench.FormatMessages(rows, benchProcs, 1))
}

// benchKernel runs one kernel at one level as a sub-benchmark.
func benchKernel(b *testing.B, name string, lvl splitc.Level) {
	k := apps.ByName(name)
	if k == nil {
		b.Fatalf("unknown kernel %s", name)
	}
	src := k.Source(benchProcs, 1)
	prog, err := splitc.Compile(src, splitc.Options{Procs: benchProcs, Level: lvl})
	if err != nil {
		b.Fatal(err)
	}
	cfg := machine.CM5(benchProcs)
	var res *interp.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = prog.Run(cfg, interp.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := k.Check(res, benchProcs, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.Time, "sim-cycles")
	b.ReportMetric(float64(res.Messages), "messages")
}

// Per-kernel, per-level benchmarks: the rows and bars of Figure 12.
func BenchmarkKernels(b *testing.B) {
	for _, k := range apps.All() {
		for _, lvl := range []splitc.Level{splitc.LevelBaseline, splitc.LevelPipelined, splitc.LevelOneWay} {
			b.Run(fmt.Sprintf("%s/%s", k.Name, lvl), func(b *testing.B) {
				benchKernel(b, k.Name, lvl)
			})
		}
	}
}

// BenchmarkCompile measures compiler throughput on the largest kernel.
func BenchmarkCompile(b *testing.B) {
	src := apps.ByName("Health").Source(benchProcs, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := splitc.Compile(src, splitc.Options{Procs: benchProcs, Level: splitc.LevelOneWay, CSE: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalysisExact measures the exponential simple-path search
// against the polynomial default (the DESIGN.md search-strategy ablation).
func BenchmarkAnalysisExact(b *testing.B) {
	src := apps.ByName("Ocean").Source(benchProcs, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := splitc.Compile(src, splitc.Options{Procs: benchProcs, Level: splitc.LevelPipelined, Exact: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPassPipeline measures the instrumented pass pipeline end to end
// on every kernel at the highest optimization level: the cost of compiling
// through pass.Plan with per-pass wall-clock instrumentation (allocation
// attribution stays off, as in Compile). Gated by cmd/benchgate against
// BENCH_analysis.json.
func BenchmarkPassPipeline(b *testing.B) {
	for _, k := range apps.All() {
		src := k.Source(benchProcs, 1)
		b.Run(k.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prog, err := splitc.Compile(src, splitc.Options{Procs: benchProcs, Level: splitc.LevelOneWay, CSE: true})
				if err != nil {
					b.Fatal(err)
				}
				if len(prog.Passes) == 0 {
					b.Fatal("no pass stats recorded")
				}
			}
		})
	}
}

// BenchmarkGenerate measures the back half of a compile alone: each
// kernel's code generation at oneway with CSE (split-phase through
// insert-syncs) from one shared Front, the form scverify and a compile at
// a second level take. Gated by cmd/benchgate against BENCH_analysis.json.
func BenchmarkGenerate(b *testing.B) {
	opts := splitc.Options{Procs: benchProcs, Level: splitc.LevelOneWay, CSE: true}
	for _, k := range apps.All() {
		f, err := splitc.NewFront(context.Background(), k.Source(benchProcs, 1), opts, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(k.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f.Generate(context.Background(), opts, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
