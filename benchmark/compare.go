package main

import (
	"fmt"
	"io"
	"slices"
	"sort"
)

// values collects one metric's value over a workload's runs.
func values(runs []result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// metricNames lists the metrics any of the runs reports.
func metricNames(runs []result) []string {
	seen := map[string]bool{}
	for _, r := range runs {
		for name := range r.Metrics {
			seen[name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// worsening is how far b is on the wrong side of a, as a share of a.
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// allBetter reports whether every value of b reads better than every value
// of a.
func allBetter(better string, a, b []float64) bool {
	sa, sb := sorted(a), sorted(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// printSpreads prints, for each workload and bounded metric, the median over
// the runs and the interquartile spread as a share of it — the figure the
// driver holds to the metric's bound.
func printSpreads(w io.Writer, sp *spec, set *resultSet) {
	fmt.Fprintf(w, "%-14s %-18s %14s %9s %7s\n", "workload", "metric", "median", "spread", "bound")
	for _, wl := range sp.Workloads {
		runs := set.Workloads[wl.Name]
		for _, name := range metricNames(runs) {
			m := runs[0].Metrics[name]
			if m.Bound == 0 {
				continue
			}
			v := values(runs, name)
			fmt.Fprintf(w, "%-14s %-18s %14.6g %8.2f%% %6.1f%%\n", wl.Name, name, median(v), spread(v)*100, m.Bound*100)
		}
	}
}

// compareFiles sets result file b against base a. For every workload and
// metric both hold it prints both medians, the ratio b/a with its base, the
// bound, and a verdict:
//
//	within      the median is not worse than the base's by more than the bound
//	regressed   it is
//	unresolved  the run-to-run spread of either side is wider than the bound,
//	            and b's runs do not all read better than a's
//	identical   an exact count reads the same on every run
//	changed     an exact count differs
//
// Metrics without a bound are diagnostic and get no verdict. Any regressed
// or changed line makes the comparison fail.
func compareFiles(w io.Writer, pathA, pathB string) error {
	var a, b resultSet
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	if a.Traced != b.Traced {
		return fmt.Errorf("%s and %s are not the same kind of run (traced %v and %v)", pathA, pathB, a.Traced, b.Traced)
	}
	sameSeeds := a.Seed == b.Seed
	var names []string
	for name := range a.Workloads {
		if _, ok := b.Workloads[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	bad := 0
	fmt.Fprintf(w, "base %s (a), compared %s (b)\n", pathA, pathB)
	fmt.Fprintf(w, "%-14s %-30s %14s %14s %18s %7s  %s\n", "workload", "metric", "a", "b", "b/a", "bound", "verdict")
	for _, wl := range names {
		ra, rb := a.Workloads[wl], b.Workloads[wl]
		for _, name := range metricNames(ra) {
			va, vb := values(ra, name), values(rb, name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			m := ra[0].Metrics[name]
			ma, mb := median(va), median(vb)
			ratio := "-"
			if ma != 0 {
				ratio = fmt.Sprintf("%.4f of %.6g", mb/ma, ma)
			}
			verdict := ""
			switch wsn := worsening(m.Better, ma, mb); {
			case m.Exact && !sameSeeds:
				verdict = "seeds differ"
			case m.Exact && slices.Equal(va, vb):
				verdict = "identical"
			case m.Exact:
				verdict = "changed"
				bad++
			case m.Bound == 0:
			case (spread(va) > m.Bound || spread(vb) > m.Bound) && !allBetter(m.Better, va, vb):
				verdict = "unresolved"
			case wsn > m.Bound:
				verdict = "regressed"
				bad++
			default:
				verdict = "within"
			}
			bound := "-"
			if m.Bound > 0 {
				bound = fmt.Sprintf("%.1f%%", m.Bound*100)
			}
			fmt.Fprintf(w, "%-14s %-30s %14.6g %14.6g %18s %7s  %s\n", wl, name, ma, mb, ratio, bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics regressed or changed an exact count", bad)
	}
	return nil
}
