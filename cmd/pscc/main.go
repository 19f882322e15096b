// Command pscc is the MiniSplit compiler driver: it compiles a program
// through splitc's two halves (NewFront, then Generate at the level) under
// one instrumented pipeline, printing the requested intermediate results.
//
// Usage:
//
//	pscc [flags] file.ms
//
//	-procs N        compile for N processors (default 8)
//	-level L        blocking | baseline | pipelined | oneway | unsafe
//	                (default oneway)
//	-cse            enable communication elimination
//	-exact          exact (exponential) simple-path search
//	-dump-after P   dump compiler state after the named passes (comma list):
//	                parse prints the parsed program, build-ir the IR, a
//	                pass from split-phase on the target code
//	-dump-target    dump the final generated code (default, unless another
//	                dump is requested)
//	-pass-stats     print per-pass wall time, allocations, and counters
//	-summary        print analysis statistics
//
// Dumps compose: each requested dump prints once, in pipeline order, under
// a "== <pass> ==" header naming the pass it follows.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/internal/diag"
	"repro/internal/pass"
	"repro/internal/source"
)

func main() {
	procs := flag.Int("procs", 8, "number of processors")
	level := flag.String("level", "oneway", "optimization level: blocking|baseline|pipelined|oneway|unsafe")
	cse := flag.Bool("cse", false, "enable communication elimination")
	exact := flag.Bool("exact", false, "exact simple-path search")
	dumpAfter := flag.String("dump-after", "", "dump compiler state after these passes (comma list)")
	dumpTarget := flag.Bool("dump-target", true, "dump the generated split-phase code (after the final pass)")
	passStats := flag.Bool("pass-stats", false, "print per-pass wall time, allocations, and counters")
	summary := flag.Bool("summary", false, "print analysis statistics")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pscc [flags] file.ms")
		flag.PrintDefaults()
		os.Exit(2)
	}
	text, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	lvl, err := splitc.ParseLevel(*level)
	if err != nil {
		fatal(err)
	}
	opts := splitc.Options{Procs: *procs, Level: lvl, CSE: *cse, Exact: *exact}

	names, err := splitc.PassNames(opts)
	if err != nil {
		fatal(err)
	}

	targetSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "dump-target" {
			targetSet = true
		}
	})
	dumps, err := resolveDumps(*dumpTarget, targetSet, *dumpAfter, names)
	if err != nil {
		fatal(err)
	}
	pl := &pass.Pipeline{MeasureAllocs: *passStats, Observer: func(p pass.Pass, ctx *pass.Context) {
		if !dumps[p.Name()] {
			return
		}
		fmt.Printf("== %s ==\n", p.Name())
		fmt.Println(dumpState(ctx))
	}}

	ctx := context.Background()
	front, err := splitc.NewFront(ctx, string(text), opts, pl)
	if err != nil {
		if front != nil {
			printWarnings(front.Diags)
		}
		fatal(err)
	}
	prog, err := front.Generate(ctx, opts, pl)
	if prog != nil {
		printWarnings(prog.Diags)
	}
	if err != nil {
		fatal(err)
	}
	if *summary {
		fmt.Println("=== analysis ===")
		fmt.Println(prog.DelaySummary())
		fmt.Printf("codegen: %+v\n", prog.Codegen)
	}
	if *passStats {
		fmt.Print(formatPassStats(prog.Passes))
	}
}

// resolveDumps maps each requested dump onto the pass it should follow:
// -dump-after names passes, and -dump-target means the pipeline's final
// pass. -dump-target stays on by default but yields when another dump is
// requested without it being set explicitly.
func resolveDumps(dumpTarget, targetSet bool, dumpAfter string, names []string) (map[string]bool, error) {
	dumps := make(map[string]bool)
	planned := make(map[string]bool, len(names))
	for _, name := range names {
		planned[name] = true
	}
	for _, name := range strings.Split(dumpAfter, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !planned[name] {
			return nil, fmt.Errorf("-dump-after: pass %q is not in the pipeline (%s)", name, strings.Join(names, ", "))
		}
		dumps[name] = true
	}
	if dumpTarget && (targetSet || len(dumps) == 0) {
		dumps[names[len(names)-1]] = true
	}
	return dumps, nil
}

// dumpState renders the most-derived compiler state available: target code
// once split-phase has run, else the IR, else the parsed program.
func dumpState(ctx *pass.Context) string {
	if p := ctx.Prog(); p != nil {
		return p.String()
	}
	if ctx.Fn != nil {
		return ctx.Fn.String()
	}
	if ctx.AST != nil {
		return source.Print(ctx.AST)
	}
	return "(no state)"
}

// formatPassStats renders the per-pass instrumentation table.
func formatPassStats(stats []pass.Stat) string {
	var b strings.Builder
	b.WriteString("== pass stats ==\n")
	width := 4
	for _, st := range stats {
		if len(st.Name) > width {
			width = len(st.Name)
		}
	}
	fmt.Fprintf(&b, "%-*s  %12s  %10s  counters\n", width, "pass", "wall", "allocs")
	for _, st := range stats {
		parts := make([]string, 0, len(st.Counters))
		for _, k := range st.CounterNames() {
			parts = append(parts, fmt.Sprintf("%s=%d", k, st.Counters[k]))
		}
		fmt.Fprintf(&b, "%-*s  %12s  %10d  %s\n", width, st.Name, st.Wall, st.Allocs, strings.Join(parts, " "))
	}
	return b.String()
}

func printWarnings(ds []diag.Diagnostic) {
	for _, d := range ds {
		if d.Sev == diag.Warning {
			fmt.Fprintln(os.Stderr, "pscc: "+d.String())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pscc:", err)
	os.Exit(1)
}
