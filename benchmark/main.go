// Command benchmark is the repository's benchmark: four workloads that
// between them drive every layer from source text to served artifact, with
// every output checked against a known answer. README.md in this directory
// says why each workload and metric was chosen.
//
//	go run ./benchmark -seed 1 -out results.json      every workload, tracing off
//	go run ./benchmark -trace 1 -trace-out trace.json  the traced, per-layer run
//	go run ./benchmark -compare a.json b.json          two result files
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1   one run
//
// The last form is the one BENCHMARK.json's driver uses: it runs in this
// process and ends its standard output with one line of JSON. Without
// -workload, each workload runs in a fresh child process.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// specFile is the benchmark's declaration, at the root of the checkout the
// command runs in.
const specFile = "BENCHMARK.json"

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	traceOut string
	out      string
	runs     int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: all, each in a child process)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the timed phase (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 makes the traced run, which reports the per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans here as Chrome trace-event JSON")
	flag.StringVar(&o.out, "out", "", "write the results here as JSON")
	flag.IntVar(&o.runs, "runs", 1, "without -workload: runs per workload, on seeds seed, seed+1, ...")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()
	o.traced = *trace == 1

	var err error
	switch {
	case *compare && flag.NArg() == 2:
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *compare:
		err = fmt.Errorf("-compare takes two result files")
	default:
		err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	sp, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	if o.workload == "" {
		return runAll(sp, o)
	}
	cfg := runConfig{workload: o.workload, seed: o.seed, seconds: o.seconds, traced: o.traced, setUps: 5, traceOut: o.traceOut}
	if o.traced {
		cfg.setUps = 1 // the traced run does not report set-up time
	}
	r, err := runWorkload(sp, cfg)
	if err != nil {
		return err
	}
	r.print(os.Stderr)
	if o.out != "" {
		if err := writeJSON(o.out, r); err != nil {
			return err
		}
	}
	fmt.Println(r.contractLine(sp))
	if !r.Correct {
		return fmt.Errorf("%s: %d of %d ops failed their checks", o.workload, r.Failed, r.Attempted)
	}
	return nil
}

// runAll runs every workload, each run in a fresh child process so that one
// workload's heap, caches and GC state cannot colour the next one's. Each
// child prints its metrics by name on standard error. With more than one
// run per workload, runAll also prints what the driver will compute: the
// spread of each bounded metric over the runs.
func runAll(sp *spec, o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(".", ".bench_out")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	set := resultSet{Seed: o.seed, Seconds: o.seconds, Traced: o.traced, Workloads: map[string][]result{}}
	failed := 0
	for _, wl := range sp.Workloads {
		for i := 0; i < o.runs; i++ {
			file := filepath.Join(tmp, fmt.Sprintf("%s.%d.json", wl.Name, i))
			args := []string{"-workload", wl.Name, "-seed", strconv.FormatInt(o.seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-out", file}
			if o.traced {
				args = append(args, "-trace", "1")
				if o.traceOut != "" {
					args = append(args, "-trace-out", traceName(o.traceOut, wl.Name, i))
				}
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			// The child's standard output is the driver's contract line,
			// which the file repeats in full. A child whose checks failed
			// exits non-zero after writing its file.
			runErr := cmd.Run()
			var r result
			if err := readJSON(file, &r); err != nil {
				if runErr != nil {
					return fmt.Errorf("%s: %w", wl.Name, runErr)
				}
				return err
			}
			if !r.Correct {
				failed++
			}
			set.Workloads[wl.Name] = append(set.Workloads[wl.Name], r)
		}
	}
	if o.runs > 1 {
		printSpreads(os.Stdout, sp, &set)
	}
	if o.out != "" {
		if err := writeJSON(o.out, &set); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed their checks", failed)
	}
	return nil
}

// traceName names one run's trace file after the file the user asked for:
// trace.json becomes trace.serve-mix.json, and trace.serve-mix.2.json for a
// third run.
func traceName(path, workload string, run int) string {
	ext := filepath.Ext(path)
	name := path[:len(path)-len(ext)] + "." + workload
	if run > 0 {
		name += "." + strconv.Itoa(run)
	}
	return name + ext
}
