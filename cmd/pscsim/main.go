// Command pscsim compiles a MiniSplit program and runs it on a simulated
// distributed-memory machine, printing the program's output, final shared
// memory, and performance statistics.
//
// Usage:
//
//	pscsim [flags] file.ms
//
//	-procs N       number of processors (default 8)
//	-machine M     cm5 | t3d | dash | jmachine | ideal (default cm5)
//	-level L       blocking | baseline | pipelined | oneway | unsafe
//	               (default oneway)
//	-cse           enable communication elimination
//	-jitter F      network latency jitter fraction (default 0)
//	-seed N        jitter seed
//	-sc            also run the sequentially consistent oracle and compare
//	               final memory and prints with it
//	-mem           print final shared memory
//	-stats         print per-processor statistics
//	-dump-bytecode print the compiled bytecode before running
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/vm"
)

func main() {
	procs := flag.Int("procs", 8, "number of processors")
	mach := flag.String("machine", "cm5", "machine model: "+strings.Join(machine.Names(), "|"))
	level := flag.String("level", "oneway", "optimization level")
	cse := flag.Bool("cse", false, "enable communication elimination")
	jitter := flag.Float64("jitter", 0, "network latency jitter fraction")
	seed := flag.Int64("seed", 0, "jitter seed")
	sc := flag.Bool("sc", false, "compare against the sequentially consistent oracle")
	mem := flag.Bool("mem", false, "print final shared memory")
	stats := flag.Bool("stats", false, "print per-processor statistics")
	dumpBC := flag.Bool("dump-bytecode", false, "print the compiled bytecode before running")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pscsim [flags] file.ms")
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
	prog, err := splitc.Compile(string(text), splitc.Options{Procs: *procs, Level: lvl, CSE: *cse})
	if err != nil {
		fatal(err)
	}
	cfg, err := machine.ByName(*mach, *procs)
	if err != nil {
		fatal(err)
	}
	if *dumpBC {
		bc, err := vm.Compiled(prog.Target)
		if err != nil {
			fatal(fmt.Errorf("bytecode: %w", err))
		}
		fmt.Print(bc.Disasm())
	}
	res, err := prog.Run(cfg, interp.RunOptions{Jitter: *jitter, Seed: *seed})
	if err != nil {
		fatal(err)
	}
	for _, line := range res.Prints {
		fmt.Println(line)
	}
	fmt.Printf("time: %.0f cycles on %s x%d (level %s), %d messages\n",
		res.Time, cfg.Name, cfg.Procs, lvl, res.Messages)
	if *stats {
		for i, st := range res.Stats {
			util := 0.0
			if st.Cycles > 0 {
				util = st.Busy / st.Cycles * 100
			}
			fmt.Printf("p%-3d cycles %10.0f  busy %5.1f%%  gets %5d  puts %5d  stores %5d  local %5d  acks %5d  barriers %3d  locks %3d\n",
				i, st.Cycles, util, st.Gets, st.Puts, st.Stores, st.LocalAcc, st.AcksRecv, st.Barriers, st.LockOps)
		}
	}
	if *mem {
		fmt.Println("memory:", interp.FormatSnapshot(res.Memory))
	}
	if *sc {
		oracle, err := prog.RunSC(*seed)
		if err != nil {
			fatal(fmt.Errorf("sc oracle: %w", err))
		}
		weakKey, scKey, same := compareSC(res, oracle)
		if same {
			fmt.Println("sc-check: final memory and prints match the sequentially consistent oracle")
		} else {
			fmt.Println("sc-check: MISMATCH with the sequentially consistent oracle")
			fmt.Println("  weak:", weakKey)
			fmt.Println("  sc:  ", scKey)
			os.Exit(1)
		}
	}
}

// compareSC renders the weak run's and the SC oracle's outcomes, final
// memory and print log, as interp.OutcomeKey strings, the format scverify
// compares outcomes in, and reports whether the two are equal.
func compareSC(weak *interp.Result, oracle *interp.SCResult) (weakKey, scKey string, same bool) {
	weakKey = interp.OutcomeKey(weak.Memory, weak.Prints)
	scKey = interp.OutcomeKey(oracle.Memory, oracle.Prints)
	return weakKey, scKey, weakKey == scKey
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pscsim:", err)
	os.Exit(1)
}
