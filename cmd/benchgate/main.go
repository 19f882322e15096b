// Command benchgate is the benchmark-regression gate: it parses `go test
// -bench` output and compares ns/op and allocs/op against the "after"
// blocks of the checked-in baseline files (BENCH_*.json), failing when a
// benchmark regresses beyond the tolerance. Improvements never fail;
// benchmarks absent from the run or metrics absent from a baseline are
// reported and skipped, so an entry gates exactly the metrics its "after"
// block names.
//
// When a benchmark appears several times in the input, the gate keeps the
// minimum of each metric: the minimum is the standard noise-robust estimate
// of a benchmark's true cost.
//
// Usage:
//
//	.github/scripts/bench-smoke.sh | benchgate baseline.json...
//
//	-in FILE     read benchmark output from FILE instead of stdin
//	-tol PCT     allowed regression percentage (default 25)
//	-update      do not gate: rewrite the baselines from the output
//	-before FILE with -update: also rewrite "before" blocks from FILE, the
//	             same benchmarks' output at the parent commit
//
// There is one protocol, and .github/scripts/bench-smoke.sh is it: the
// benchgate job gates that script's output and a baseline is recorded from
// that script's output with more rounds, on the host that will gate. Each
// benchmark runs at a fixed iteration count long enough to time its steady
// state — three iterations of a sub-millisecond operation time its warm-up
// — and its samples are spread over the run, one a round. Absolute ns/op
// does not carry from one host to another, and on a host shared with other
// tenants not from one quarter-hour to the next; an entry whose wall time
// cannot hold the tolerance on unchanged code names no ns_op and gates
// allocs/op alone, because a gate that fails on unchanged code carries no
// information.
//
// With -update the same per-metric minimums are written into the baseline
// files instead of compared with them: for every entry the run measured,
// the numbers its "after" block records, host_cpus, and the fields derived
// from before and after. Everything else in the file — layout, notes,
// "before" blocks, entries the run did not measure — is left byte for
// byte, so a baseline number is never typed by hand:
//
//	.github/scripts/bench-smoke.sh 10 | benchgate -update BENCH_interp.json
//
// A re-registration that also moves the reference point runs the same
// benchmarks at the parent commit, alternated with the change on one host,
// and passes that output as -before: entries both runs measured get their
// "before" block rewritten from it, the same minimums, the same fields.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// baseline mirrors the checked-in BENCH_*.json structure; only the
// benchmark names and their "after" metrics matter to the gate.
type baseline struct {
	Benchmarks []struct {
		Name  string   `json:"name"`
		After *metrics `json:"after"`
		// HostCPUs records the CPU count of the host the baseline was
		// measured on; ParallelPool marks entries whose cost depends on
		// the benchmark's parallel width (worker-pool grids). A
		// parallel-pool entry is only comparable on a host of the same
		// width — the gate skips it otherwise instead of misreading a
		// width change as a regression.
		HostCPUs     int  `json:"host_cpus"`
		ParallelPool bool `json:"parallel_pool"`
	} `json:"benchmarks"`
}

// metrics holds the comparable numbers; pointers distinguish a metric the
// baseline simply does not record (e.g. allocs of a wall-clock-only entry).
// width is the `-N` GOMAXPROCS suffix of the measured run (0 if absent).
type metrics struct {
	NsOp     *float64 `json:"ns_op"`
	BytesOp  *float64 `json:"bytes_op"` // recorded by -update, not gated
	AllocsOp *float64 `json:"allocs_op"`
	width    int
}

// benchLine matches one `go test -bench` result line, e.g.
// "BenchmarkInterpOcean-4   5   1108000 ns/op   94072 B/op   389 allocs/op".
// Custom b.ReportMetric units (e.g. the model checker's "states") may
// appear between ns/op and the allocation columns and are skipped.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+\d+\s+([\d.]+) ns/op(?:\s+(?:[\d.]+ \S+\s+)*?([\d.]+) B/op\s+([\d.]+) allocs/op)?`)

// parseBench extracts name -> metrics from benchmark output. The trailing
// -N GOMAXPROCS suffix is stripped from the name (so it matches the
// baselines) but kept as the run's parallel width, and repeated runs of
// one benchmark keep the per-metric minimum.
func parseBench(r io.Reader) (map[string]metrics, error) {
	out := make(map[string]metrics)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		got := metrics{NsOp: &ns}
		if m[2] != "" {
			got.width, _ = strconv.Atoi(m[2])
		}
		if m[5] != "" {
			if by, err := strconv.ParseFloat(m[4], 64); err == nil {
				got.BytesOp = &by
			}
			if al, err := strconv.ParseFloat(m[5], 64); err == nil {
				got.AllocsOp = &al
			}
		}
		if prev, ok := out[m[1]]; ok {
			got.NsOp = minMetric(prev.NsOp, got.NsOp)
			got.BytesOp = minMetric(prev.BytesOp, got.BytesOp)
			got.AllocsOp = minMetric(prev.AllocsOp, got.AllocsOp)
		}
		out[m[1]] = got
	}
	return out, sc.Err()
}

// minMetric returns the smaller of two optional metric values.
func minMetric(a, b *float64) *float64 {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case *a < *b:
		return a
	default:
		return b
	}
}

// check compares one metric and returns its report line plus whether it
// regressed beyond tol percent. A missing side skips the comparison.
func check(name, metric string, base, got *float64, tol float64) (string, bool) {
	switch {
	case base == nil:
		return fmt.Sprintf("skip %-42s %-9s no baseline metric", name, metric), false
	case got == nil:
		return fmt.Sprintf("skip %-42s %-9s not measured in this run", name, metric), false
	}
	delta := 0.0
	if *base > 0 {
		delta = (*got - *base) / *base * 100
	}
	status, bad := "ok  ", false
	if delta > tol {
		status, bad = "FAIL", true
	}
	return fmt.Sprintf("%s %-42s %-9s base %14.0f  got %14.0f  %+6.1f%%",
		status, name, metric, *base, *got, delta), bad
}

func run(benchOut io.Reader, baselineFiles []string, tol float64, w io.Writer) (int, error) {
	got, err := parseBench(benchOut)
	if err != nil {
		return 0, fmt.Errorf("reading benchmark output: %w", err)
	}
	failures := 0
	compared := 0
	for _, file := range baselineFiles {
		data, err := os.ReadFile(file)
		if err != nil {
			return 0, err
		}
		var base baseline
		if err := json.Unmarshal(data, &base); err != nil {
			return 0, fmt.Errorf("%s: %w", file, err)
		}
		for _, b := range base.Benchmarks {
			if b.After == nil {
				continue
			}
			cur, ok := got[b.Name]
			if !ok {
				fmt.Fprintf(w, "skip %-42s           not in this run\n", b.Name)
				continue
			}
			if b.ParallelPool && b.HostCPUs != 0 && cur.width != 0 && cur.width != b.HostCPUs {
				fmt.Fprintf(w, "skip %-42s           parallel width %d, baseline measured at %d\n",
					b.Name, cur.width, b.HostCPUs)
				continue
			}
			for _, m := range []struct {
				metric    string
				base, got *float64
			}{
				{"ns/op", b.After.NsOp, cur.NsOp},
				{"allocs/op", b.After.AllocsOp, cur.AllocsOp},
			} {
				line, bad := check(b.Name, m.metric, m.base, m.got, tol)
				fmt.Fprintln(w, line)
				if bad {
					failures++
				}
				if m.base != nil && m.got != nil {
					compared++
				}
			}
		}
	}
	fmt.Fprintf(w, "benchgate: %d comparisons, %d regressions beyond %.0f%%\n", compared, failures, tol)
	if compared == 0 {
		return 0, fmt.Errorf("no benchmark matched any baseline entry")
	}
	return failures, nil
}

func main() {
	in := flag.String("in", "", "benchmark output file (default stdin)")
	tol := flag.Float64("tol", 25, "allowed regression percentage")
	upd := flag.Bool("update", false, "rewrite the baselines' after blocks from the benchmark output instead of gating")
	beforeIn := flag.String("before", "", "with -update: the parent commit's benchmark output, written into the before blocks")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchgate [flags] baseline.json...")
		flag.PrintDefaults()
		os.Exit(2)
	}
	var src io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	if *beforeIn != "" && !*upd {
		fatal(fmt.Errorf("-before only means something with -update"))
	}
	if *upd {
		var before io.Reader
		if *beforeIn != "" {
			f, err := os.Open(*beforeIn)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			before = f
		}
		if err := update(src, before, flag.Args(), os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	failures, err := run(src, flag.Args(), *tol, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if failures > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
