// Command pscverify is the dynamic sequential-consistency verifier: it
// compiles a MiniSplit program at one or more optimization levels, runs
// each compile across a grid of seeded schedules (latency jitter plus
// legal event-order perturbation) with the execution tap attached, and
// checks that every recorded happens-before trace embeds into a total
// order and that every outcome is one a sequentially consistent execution
// could produce. Exit status 1 means a violation was found.
//
// Usage:
//
//	pscverify [flags] file.ms       verify one program
//	pscverify -apps all             verify the five paper kernels
//	pscverify -progen 50            verify 50 generated programs
//
//	-procs N        number of processors (default 4)
//	-machine M      cm5 | t3d | dash | jmachine | ideal (default cm5)
//	-level L        blocking | baseline | pipelined | oneway | unsafe,
//	                comma-separated, or "all" (default all: the three
//	                optimization levels the paper compares)
//	-schedules N    schedules per level (default 6)
//	-cse            enable communication elimination in the compiles
//	-det            assert the program is schedule-deterministic and
//	                compare every run against the blocking reference
//	                (implied by -apps)
//	-scale N        problem scale for -apps (default 1)
//	-weaken PAIRS   delay pairs codegen must drop, e.g. "0-1,3-4" — seeds
//	                sequential-consistency violations the verifier must
//	                then catch
//	-list-delays    print the program's enforced delay pairs, marking the
//	                ones whose removal changes the emitted code (candidates
//	                for -weaken), then exit
//	-max-states N   state budget for the exact SC outcome enumeration
//	                (default: the verifier's 1,000,000-state budget)
//	-enum-stats     print the model checker's exploration statistics
//	                (states, transitions, deterministic steps, branch
//	                points, peak depth)
//	-dump-bytecode  print the compiled bytecode of the file under
//	                verification at each requested level, then exit
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	splitc "repro"
	"repro/internal/apps"
	"repro/internal/delay"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/progen"
	"repro/internal/scverify"
	"repro/internal/vm"
)

func main() {
	procs := flag.Int("procs", 4, "number of processors")
	mach := flag.String("machine", "cm5", "machine model: "+strings.Join(machine.Names(), "|"))
	level := flag.String("level", "all", "optimization level(s), comma-separated or \"all\"")
	schedules := flag.Int("schedules", 6, "schedules per level")
	cse := flag.Bool("cse", false, "enable communication elimination")
	det := flag.Bool("det", false, "assert schedule determinism against the blocking reference")
	scale := flag.Int("scale", 1, "problem scale for -apps")
	weaken := flag.String("weaken", "", "delay pairs to drop from codegen, e.g. \"0-1,3-4\"")
	listDelays := flag.Bool("list-delays", false, "list enforced delay pairs and exit")
	appsFlag := flag.String("apps", "", "verify paper kernel(s): a kernel name or \"all\"")
	progenN := flag.Int("progen", 0, "verify N generated programs instead of a file")
	maxStates := flag.Int("max-states", 0, "state budget for the exact SC enumeration (0 = verifier default)")
	enumStats := flag.Bool("enum-stats", false, "print SC model-checker exploration statistics")
	dumpBC := flag.Bool("dump-bytecode", false, "print the compiled bytecode at each level and exit")
	flag.Parse()

	levels, err := splitc.ParseLevels(*level)
	if err != nil {
		fatal(err)
	}
	pairs, err := parseWeaken(*weaken)
	if err != nil {
		fatal(err)
	}
	cfg, err := machine.ByName(*mach, *procs)
	if err != nil {
		fatal(err)
	}
	opts := scverify.Options{
		Procs:         *procs,
		Levels:        levels,
		Machine:       cfg,
		Schedules:     scverify.Schedules(*schedules),
		Deterministic: *det,
		Weaken:        pairs,
		CSE:           *cse,
		EnumBudget:    *maxStates,
	}
	showEnumStats = *enumStats

	switch {
	case *appsFlag != "":
		os.Exit(runApps(*appsFlag, *scale, opts))
	case *progenN > 0:
		os.Exit(runProgen(*progenN, opts))
	default:
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: pscverify [flags] file.ms | -apps all | -progen N")
			flag.PrintDefaults()
			os.Exit(2)
		}
		text, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		if *listDelays {
			lvl := splitc.LevelPipelined
			if len(levels) == 1 {
				lvl = levels[0]
			}
			if err := printDelays(string(text), *procs, lvl); err != nil {
				fatal(err)
			}
			return
		}
		if *dumpBC {
			if err := dumpBytecode(string(text), *procs, *cse, levels); err != nil {
				fatal(err)
			}
			return
		}
		os.Exit(runOne(flag.Arg(0), string(text), opts))
	}
}

// showEnumStats mirrors -enum-stats for the run helpers.
var showEnumStats bool

// printEnumStats reports the model checker's effort on one verified
// program.
func printEnumStats(rep *scverify.Report) {
	if rep.Enum == nil {
		return
	}
	s := rep.Enum
	fmt.Printf("enum: states=%d transitions=%d local-steps=%d branches=%d peak-frontier=%d outcomes=%d",
		s.States, s.Transitions, s.LocalSteps, s.Branches, s.PeakFrontier, s.Outcomes)
	if s.Truncated {
		fmt.Print(" TRUNCATED")
	}
	fmt.Println()
}

// runOne verifies one source program and prints its report.
func runOne(name, src string, opts scverify.Options) int {
	rep, err := scverify.Verify(src, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s:\n%s", name, rep.Summary())
	if showEnumStats {
		printEnumStats(rep)
	}
	printViolations(rep)
	if !rep.OK() {
		return 1
	}
	oracle := "exact SC outcome oracle"
	if opts.Deterministic {
		oracle = "blocking-reference comparison"
	} else if !rep.ExactOracle {
		oracle = "trace check only (SC enumeration over budget)"
	}
	fmt.Printf("ok: %d runs sequentially consistent (%s)\n", rep.Runs(), oracle)
	return 0
}

// runApps verifies the named paper kernel ("all" for every kernel)
// deterministically against its sequential oracle.
func runApps(name string, scale int, opts scverify.Options) int {
	kernels := apps.All()
	if name != "all" {
		k := apps.ByName(name)
		if k == nil {
			fatal(fmt.Errorf("unknown kernel %q", name))
		}
		kernels = []apps.Kernel{*k}
	}
	opts.Deterministic = true
	status := 0
	for _, k := range kernels {
		k := k
		procs := opts.Procs
		opts.Validate = func(mem map[string][]ir.Value) error {
			return k.Validate(mem, procs, scale)
		}
		rep, err := scverify.Verify(k.Source(procs, scale), opts)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", k.Name, err))
		}
		ok := "ok"
		if !rep.OK() {
			ok = "FAIL"
			status = 1
		}
		fmt.Printf("%-8s %s  %d runs\n%s", k.Name, ok, rep.Runs(), rep.Summary())
		printViolations(rep)
	}
	return status
}

// runProgen verifies n generated programs (seeds 0..n-1) against the
// exhaustive SC outcome oracle where it fits the budget.
func runProgen(n int, opts scverify.Options) int {
	status, exact := 0, 0
	for seed := int64(0); seed < int64(n); seed++ {
		src := progen.Generate(seed, progen.Options{Procs: opts.Procs})
		rep, err := scverify.Verify(src, opts)
		if err != nil {
			fatal(fmt.Errorf("seed %d: %w", seed, err))
		}
		if rep.ExactOracle {
			exact++
		}
		if showEnumStats {
			fmt.Printf("seed %d: ", seed)
			printEnumStats(rep)
		}
		if !rep.OK() {
			status = 1
			fmt.Printf("seed %d FAIL:\n%s", seed, rep.Summary())
			printViolations(rep)
			fmt.Printf("source:\n%s", src)
		}
	}
	if status == 0 {
		fmt.Printf("ok: %d generated programs verified (%d with exact SC oracle)\n", n, exact)
	}
	return status
}

// dumpBytecode prints the VM image the verifier's runs would execute —
// one disassembly per requested optimization level, since each level
// compiles to different target code.
func dumpBytecode(src string, procs int, cse bool, levels []splitc.Level) error {
	for _, lvl := range levels {
		prog, err := splitc.Compile(src, splitc.Options{Procs: procs, Level: lvl, CSE: cse})
		if err != nil {
			return err
		}
		bc, err := vm.Compiled(prog.Target)
		if err != nil {
			return fmt.Errorf("%s: bytecode: %w", lvl, err)
		}
		fmt.Printf("== level %s ==\n%s", lvl, bc.Disasm())
	}
	return nil
}

// printDelays lists the enforced delay pairs of the program's analysis at
// the given level, marking the pairs whose individual removal changes the
// emitted code — the candidates worth passing to -weaken.
func printDelays(src string, procs int, lvl splitc.Level) error {
	ctx := context.Background()
	front, err := splitc.NewFront(ctx, src, splitc.Options{Procs: procs}, nil)
	if err != nil {
		return err
	}
	effective, err := scverify.EffectiveWeakenings(ctx, front, lvl)
	if err != nil {
		return err
	}
	eff := make(map[delay.Pair]bool, len(effective))
	for _, p := range effective {
		eff[p] = true
	}
	a := front.Analysis
	fmt.Printf("%d enforced delay pairs at level %s (%d accesses in %d precedence classes; * = removal changes emitted code):\n",
		a.D.Size(), lvl, len(front.Fn.Accesses), a.RClasses)
	for _, p := range a.D.Pairs() {
		mark := " "
		if eff[p] {
			mark = "*"
		}
		fmt.Printf("%s %d-%d  %s -> %s\n", mark, p.A, p.B,
			front.Fn.AccessByID(p.A).Site(), front.Fn.AccessByID(p.B).Site())
	}
	return nil
}

func printViolations(rep *scverify.Report) {
	for _, lr := range rep.Levels {
		for _, v := range lr.Violations {
			fmt.Print(v.String())
		}
		for _, e := range lr.OutcomeErrs {
			fmt.Println(e.Error())
		}
	}
}

// parseWeaken parses "0-1,3-4" into delay pairs.
func parseWeaken(s string) ([]delay.Pair, error) {
	if s == "" {
		return nil, nil
	}
	var out []delay.Pair
	for _, part := range strings.Split(s, ",") {
		a, b, ok := strings.Cut(strings.TrimSpace(part), "-")
		if !ok {
			return nil, fmt.Errorf("bad weaken pair %q: want A-B", part)
		}
		pa, err1 := strconv.Atoi(a)
		pb, err2 := strconv.Atoi(b)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad weaken pair %q: want integer access ids", part)
		}
		out = append(out, delay.Pair{A: pa, B: pb})
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pscverify:", err)
	os.Exit(1)
}
