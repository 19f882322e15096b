package interp_test

// Micro-benchmarks over single kernel simulations, tracking the
// interpreter's per-event cost (ns/op) and allocation behavior
// (allocs/op). BENCH_interp.json holds the values cmd/benchgate gates them
// against; `benchgate -update` writes it.
//
// These live in an external test package because the kernel sources come
// from internal/apps, which imports interp for its result validators.

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/codegen"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/syncanal"
	"repro/internal/target"
)

// compileKernel lowers one kernel at the full optimization stack for a
// small machine, mirroring what the Figure 12 grid simulates per cell.
func compileKernel(tb testing.TB, name string, procs int) *target.Prog {
	tb.Helper()
	k := apps.ByName(name)
	if k == nil {
		tb.Fatalf("unknown kernel %s", name)
	}
	src := k.Source(procs, 1)
	fn := ir.MustBuild(src, ir.BuildOptions{Procs: procs})
	res := syncanal.Analyze(fn, syncanal.Options{})
	return codegen.Generate(fn, res.D, codegen.Options{Pipeline: true, OneWay: true, Hoist: true}).Prog
}

func benchInterpKernel(b *testing.B, name string) {
	benchEngineKernel(b, name, 8, false)
}

// benchEngineKernel times one run of the kernel on a fresh Runner — set-up
// included, as a program's first interp.Run pays it — on the bytecode VM
// or, with walker, on the AST walker.
func benchEngineKernel(b *testing.B, name string, procs int, walker bool) {
	prog := compileKernel(b, name, procs)
	cfg := machine.CM5(procs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := interp.NewRunner(prog, cfg)
		if err != nil {
			b.Fatal(err)
		}
		r.SetWalker(walker)
		if _, err := r.Run(interp.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpEM3D simulates one EM3D time-stepping run (barrier-phased
// bipartite graph updates) on 8 simulated CM-5 processors.
func BenchmarkInterpEM3D(b *testing.B) { benchInterpKernel(b, "EM3D") }

// BenchmarkInterpOcean simulates one Ocean run (stencil relaxation) on 8
// simulated CM-5 processors.
func BenchmarkInterpOcean(b *testing.B) { benchInterpKernel(b, "Ocean") }

// BenchmarkVMEM3D and BenchmarkVMOcean run the bytecode VM, as every run
// outside the tests does; BenchmarkWalkEM3D and BenchmarkWalkOcean select
// the AST-walking reference through the Runner's test hook, so the
// VM-vs-walker ratio is always measurable from one bench run.
func BenchmarkVMEM3D(b *testing.B) { benchEngineKernel(b, "EM3D", 8, false) }

func BenchmarkVMOcean(b *testing.B) { benchEngineKernel(b, "Ocean", 8, false) }

func BenchmarkWalkEM3D(b *testing.B) { benchEngineKernel(b, "EM3D", 8, true) }

func BenchmarkWalkOcean(b *testing.B) { benchEngineKernel(b, "Ocean", 8, true) }

// BenchmarkVMBigProc scales the simulated machine instead of the problem:
// EM3D on 256 and 1024 simulated processors, Ocean on 256. The tier guards
// the structures whose cost grows with the processor count — the event
// queue's depth, the per-processor slabs, and the lazy reads' forcing
// bound (without it every write dispatch scans all processors, which is
// quadratic in machine size) — which the 8-processor benchmarks cannot see.
func BenchmarkVMBigProc(b *testing.B) {
	for _, c := range []struct {
		kernel string
		procs  int
	}{{"EM3D", 256}, {"EM3D", 1024}, {"Ocean", 256}} {
		b.Run(fmt.Sprintf("%s/procs=%d", c.kernel, c.procs), func(b *testing.B) {
			benchEngineKernel(b, c.kernel, c.procs, false)
		})
	}
}

// BenchmarkVMCholesky simulates the post/wait kernel on 64 processors at
// the one-way level: a quarter of a million gets a run, in a program with
// event objects, which take the lazy-read path like any other.
func BenchmarkVMCholesky(b *testing.B) {
	benchEngineKernel(b, "Cholesky", 64, false)
}
