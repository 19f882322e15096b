// Analysis-performance experiment: wall-clock scaling of the delay-set
// and synchronization analyses on generated programs of increasing size.
// Unlike the figure experiments this measures the compiler itself, not the
// simulated machine, so rows run sequentially regardless of Workers (a
// contended grid would contaminate the timings).
package bench

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/conflict"
	"repro/internal/delay"
	"repro/internal/ir"
	"repro/internal/progen"
	"repro/internal/sem"
	"repro/internal/source"
	"repro/internal/syncanal"
)

// AnalysisSizes are the access-count targets of the scaling grid.
var AnalysisSizes = []int{64, 128, 256, 512}

// AnalysisTiers returns the pinned progen scale tiers appended to the
// grid (see progen.ScaleTiers). Only the 2k tier runs by default;
// PSC_SCALE_TIERS=1 opts into the 8k and 32k tiers.
func AnalysisTiers() []string {
	if os.Getenv("PSC_SCALE_TIERS") != "" {
		return []string{"acc2048", "acc8192", "acc32768"}
	}
	return []string{"acc2048"}
}

// AnalysisRow is one program size's measurements.
type AnalysisRow struct {
	Target        int     `json:"target"`
	Seed          int64   `json:"seed"`
	Accesses      int     `json:"accesses"`
	ConflictPairs int     `json:"conflict_pairs"`
	BaselinePairs int     `json:"baseline_pairs"`
	FinalPairs    int     `json:"final_pairs"`
	Regions       int     `json:"regions"`
	RClasses      int     `json:"r_classes"`      // R-equivalence classes of the condensed precedence
	CondenseRatio float64 `json:"condense_ratio"` // accesses per class — the row-count reduction factor
	PeakBytes     uint64  `json:"peak_bytes"`     // sampled peak heap growth of one Analyze
	DelayMS       float64 `json:"delay_ms"`       // plain Shasha-Snir delay set
	AnalyzeMS     float64 `json:"analyze_ms"`     // full pipeline
	IncrMS        float64 `json:"incr_ms"`        // incremental recheck of an unchanged rebuild
}

// analysisProgram deterministically selects the benchmark program for a
// target access count: fixed progen options scaled by the target, first
// seed whose built function lands within [0.9, 1.25]x the target. The
// same rule is used by the Go benchmarks in internal/delay and
// internal/syncanal, so all three measure identical inputs.
func analysisProgram(target int) (*ir.Fn, int64, error) {
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
			return fn, seed, nil
		}
	}
	return nil, 0, fmt.Errorf("no progen seed lands near %d accesses", target)
}

// measurePeakBytes runs fn once and reports its wall clock in ms plus the
// peak live-heap growth it caused: a sampler polls HeapAlloc while fn
// runs, against a post-GC baseline. A sampled peak is a lower bound — the
// poller can miss the true maximum between collections — but it tracks
// the matrix footprint closely enough to expose an asymptotic regression
// in row storage.
func measurePeakBytes(fn func()) (float64, uint64) {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	base := m.HeapAlloc
	var peak atomic.Uint64
	peak.Store(base)
	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		var s runtime.MemStats
		for {
			select {
			case <-done:
				return
			default:
			}
			runtime.ReadMemStats(&s)
			for {
				old := peak.Load()
				if s.HeapAlloc <= old || peak.CompareAndSwap(old, s.HeapAlloc) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	start := time.Now()
	fn()
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	close(done)
	<-stopped
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	p := peak.Load()
	if end.HeapAlloc > p {
		p = end.HeapAlloc
	}
	if p < base {
		return ms, 0
	}
	return ms, p - base
}

// bestOfMS times fn over reps runs and returns the fastest in ms.
func bestOfMS(reps int, fn func()) float64 {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best) / float64(time.Millisecond)
}

// measureRow runs the full measurement battery for one selected program.
// The expensive columns drop to a single repetition on the pinned tiers,
// where one run already takes seconds.
func measureRow(fn *ir.Fn, target int, seed int64) AnalysisRow {
	ag := ir.BuildAccessGraph(fn)
	cs := conflict.Compute(fn)
	res := syncanal.Analyze(fn, syncanal.Options{})
	reps := 3
	if target >= 2048 {
		reps = 1
	}
	inc := syncanal.NewIncremental(syncanal.Options{})
	inc.Analyze(fn)
	ratio := 0.0
	if res.RClasses > 0 {
		ratio = float64(len(fn.Accesses)) / float64(res.RClasses)
	}
	// The peak-heap sampling run doubles as the single timed repetition on
	// the pinned tiers, where one full Analyze is already seconds-to-minutes
	// of wall clock; the small sizes re-time without the sampler's overhead.
	analyzeMS, peakBytes := measurePeakBytes(func() { syncanal.Analyze(fn, syncanal.Options{}) })
	if reps > 1 {
		analyzeMS = bestOfMS(reps, func() { syncanal.Analyze(fn, syncanal.Options{}) })
	}
	return AnalysisRow{
		Target:        target,
		Seed:          seed,
		Accesses:      len(fn.Accesses),
		ConflictPairs: cs.Size(),
		BaselinePairs: res.Baseline.Size(),
		FinalPairs:    res.D.Size(),
		Regions:       res.Regions,
		RClasses:      res.RClasses,
		CondenseRatio: ratio,
		PeakBytes:     peakBytes,
		DelayMS:       bestOfMS(reps, func() { delay.ShashaSnir(ag, cs) }),
		AnalyzeMS:     analyzeMS,
		IncrMS:        bestOfMS(3, func() { inc.Analyze(fn) }),
	}
}

// RunAnalysisScaling measures delay.ShashaSnir and the full
// syncanal.Analyze pipeline — cold and incremental — at each target size, then on each named progen scale tier.
func RunAnalysisScaling(sizes []int, tiers []string) ([]AnalysisRow, error) {
	rows := make([]AnalysisRow, 0, len(sizes)+len(tiers))
	for _, target := range sizes {
		fn, seed, err := analysisProgram(target)
		if err != nil {
			return nil, err
		}
		rows = append(rows, measureRow(fn, target, seed))
	}
	for _, name := range tiers {
		tier, ok := progen.FindScaleTier(name)
		if !ok {
			return nil, fmt.Errorf("unknown scale tier %q", name)
		}
		prog, err := source.Parse(progen.Generate(tier.Seed, tier.Opts))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		info, err := sem.Check(prog)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		fn, err := ir.Build(info, ir.BuildOptions{Procs: tier.Opts.Procs})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rows = append(rows, measureRow(fn, tier.Accesses, tier.Seed))
	}
	return rows, nil
}

// FormatAnalysis renders the scaling table.
func FormatAnalysis(rows []AnalysisRow) string {
	var sb strings.Builder
	sb.WriteString("Analysis scaling (progen programs; best of 3, tiers best of 1)\n")
	sb.WriteString("  accesses  conflicts  baseline|D|  final|D|  regions  classes  condense   peak MB   delay ms  analyze ms  incr ms\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %8d  %9d  %11d  %8d  %7d  %7d  %7.1fx  %8.1f  %9.2f  %10.2f  %7.2f\n",
			r.Accesses, r.ConflictPairs, r.BaselinePairs, r.FinalPairs, r.Regions,
			r.RClasses, r.CondenseRatio, float64(r.PeakBytes)/(1<<20),
			r.DelayMS, r.AnalyzeMS, r.IncrMS)
	}
	return sb.String()
}

// AnalysisJSON wraps the scaling rows for -json emission.
func AnalysisJSON(rows []AnalysisRow) any {
	return map[string]any{"experiment": "analysis", "rows": rows}
}
