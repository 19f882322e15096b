// Command pscbench regenerates the paper's evaluation tables and figures
// at full size.
//
// Usage:
//
//	pscbench [flags]
//
//	-exp E      table1 | fig12 | fig13 | ablation | messages | cse | all (default all)
//	-procs N    processors for fig12/ablation/messages (default 64)
//	-scale N    problem scale (default 1)
//	-parallel   fan the experiment grids across all CPUs; output is
//	            byte-identical to a sequential run
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: table1|fig12|fig13|ablation|messages|cse|all")
	procs := flag.Int("procs", 64, "processors for fig12/ablation/messages")
	scale := flag.Int("scale", 1, "problem scale")
	parallel := flag.Bool("parallel", false, "fan experiment grids across all CPUs (deterministic output)")
	flag.Parse()

	if *parallel {
		bench.Workers = 0 // one worker per CPU
	} else {
		bench.Workers = 1
	}

	run := func(name string) bool { return *exp == "all" || *exp == name }
	any := false

	if run("table1") {
		any = true
		out, err := bench.RunTable1()
		if err != nil {
			fatal(err)
		}
		fmt.Println(out)
	}
	if run("fig12") {
		any = true
		res, err := bench.RunFigure12(*procs, *scale)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Format())
	}
	if run("fig13") {
		any = true
		res, err := bench.RunFigure13([]int{1, 2, 4, 8, 16, 32}, *scale)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Format())
	}
	if run("ablation") {
		any = true
		rows, err := bench.RunDelayAblation(*procs, *scale)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FormatAblation(rows, *procs, *scale))
	}
	if run("cse") {
		any = true
		rows, err := bench.RunCSEStats(*procs, *scale)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FormatCSE(rows, *procs, *scale))
	}
	if run("messages") {
		any = true
		rows, err := bench.RunMessageAblation(*procs, *scale)
		if err != nil {
			fatal(err)
		}
		fmt.Println(bench.FormatMessages(rows, *procs, *scale))
	}
	if !any {
		fmt.Fprintf(os.Stderr, "pscbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pscbench:", err)
	os.Exit(1)
}
