// Package syncanal implements the paper's core contribution (section 5):
// sharpening the Shasha–Snir delay set with synchronization information
// from post/wait events, barriers, and locks.
//
// The algorithm is the six-step refinement of section 5.1:
//
//  1. Compute the dominator tree.
//  2. Compute the initial delay set D1 by restricting back-path detection
//     to pairs that include one synchronization access.
//  3. Seed the precedence relation R with matching post->wait pairs (and a
//     reflexive edge for each barrier: operations before a barrier episode
//     precede operations after it on every processor).
//  4. Close R under the dominator rule: [a1, a2] joins R when there are
//     b1, b2 with a1 dom b1, b2 dom a2, [a1,b1] ∈ D1, [b2,a2] ∈ D1 and
//     [b1,b2] ∈ R; and under transitivity.
//  5. Orient the conflict edges ordered by R: C1 = C − {[a2,a1] : [a1,a2] ∈ R}.
//  6. D = D1 ∪ {[a,b] ∈ P : back-path in P ∪ C1}, where the back-path
//     search also removes accesses disqualified by R (Figure 6) and by
//     common-lock guarding (section 5.3).
//
// Steps 1-2 live in this file, 3-4 in precedence.go, 5-6 in orient.go;
// guards.go is section 5.3 and cophase.go section 5.2. Step 2 runs the
// endpoint-filtered query it describes and nothing more. The plain
// Shasha–Snir set, which no step reads, is D1 plus the same query over the
// pairs with no synchronization endpoint; Result.Baseline computes that
// remainder on its first read, so a compile that enforces D never pays for
// it.
package syncanal

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/conflict"
	"repro/internal/delay"
	"repro/internal/graph"
	"repro/internal/ir"
)

// Options configures the analysis.
type Options struct {
	// Exact uses the exponential simple-path search in back-path detection.
	Exact bool
	// NoPostWait, NoBarrier, NoLocks disable individual refinements
	// (for ablation studies).
	NoPostWait bool
	NoBarrier  bool
	NoLocks    bool
}

// Timing records the wall time of each analysis sub-phase, for a caller
// that wants to see where analysis time goes without re-instrumenting the
// algorithm. No driver, pass or benchmark reads it: the pass pipeline
// times whole passes, and only tests check these fields. The deferred
// baseline's fill is not a sub-phase: it runs on whichever reader asks
// first, possibly concurrently with others, and is timed by none of them.
type Timing struct {
	// Prepare covers the shared inputs: access graph, conflict set,
	// dominator and postdominator trees.
	Prepare time.Duration
	// D1 is step 2: back-path detection over the pairs with a
	// synchronization endpoint.
	D1 time.Duration
	// Condense is the structural class-partition maintenance share of
	// steps 3–4: splitting classes the seed and step-4 rectangles
	// distinguish (at most one rectangle per class and round) and
	// coalescing indistinguishable ones back together before each closure.
	Condense time.Duration
	// Precedence covers seeding and refining R (steps 3–4), minus the
	// partition maintenance reported as Condense. Most of it is matrix
	// work on D1 that the fixpoint does not repeat: D1's A-major
	// transpose (which the lock guards read too) and the two
	// dominator-tree walks that filter it into PS and CS.
	Precedence time.Duration
	// Guards is the lock-guard computation (section 5.3).
	Guards time.Duration
	// CoPhase is the barrier phase partitioning (section 5.2).
	CoPhase time.Duration
	// Regions is the strongly-connected-component decomposition of the
	// oriented mixed graph that step 6's searches are confined to.
	Regions time.Duration
	// Orient covers the rest of steps 5–6: the orientation rows, the
	// removal covers, the oriented back-path searches and the final union.
	Orient time.Duration
}

// Total sums the sub-phase times.
func (t Timing) Total() time.Duration {
	return t.Prepare + t.D1 + t.Condense + t.Precedence + t.Guards + t.CoPhase + t.Regions + t.Orient
}

// String renders the timing as one line per sub-phase.
func (t Timing) String() string {
	var sb strings.Builder
	for _, row := range []struct {
		name string
		d    time.Duration
	}{
		{"prepare", t.Prepare}, {"d1", t.D1},
		{"condense", t.Condense}, {"precedence", t.Precedence},
		{"guards", t.Guards}, {"cophase", t.CoPhase}, {"regions", t.Regions},
		{"orient", t.Orient},
	} {
		fmt.Fprintf(&sb, "%-12s %s\n", row.name, row.d)
	}
	fmt.Fprintf(&sb, "%-12s %s\n", "total", t.Total())
	return sb.String()
}

// Result carries everything the analysis computed.
type Result struct {
	Fn   *ir.Fn
	AG   *ir.AccessGraph
	CS   *conflict.Set
	Dom  *ir.DomTree
	PDom *ir.PostDomTree
	// Baseline is the plain Shasha–Snir delay set (no synchronization
	// analysis): the paper's Figure 12 "unoptimized" compiler. It is a
	// delay.Deferred set, computed on its first read: nothing the analysis
	// does reads it.
	Baseline *delay.Set
	// D1 is the initial delay set restricted to synchronization pairs.
	D1 *delay.Set
	// R is the refined precedence relation.
	R *Precedence
	// D is the final delay set.
	D *delay.Set
	// Guards maps access ID -> set of lock keys guarding it.
	Guards map[int]map[string]bool
	// CoPhase is the symmetric co-phase relation (nil when barrier
	// analysis is disabled): CoPhase.Row(x) holds y when accesses x and y
	// can appear in a common barrier-free region. The backing is
	// class-condensed: accesses with the same region-membership set share
	// one physical row.
	CoPhase *graph.ClassRows
	// Regions and LargestRegion describe the strongly-connected-component
	// decomposition of the oriented mixed graph the regionized delay
	// engine works on: how many regions there are and how many accesses
	// the biggest one holds. Surfaced through the pass pipeline's
	// -pass-stats counters.
	Regions       int
	LargestRegion int
	// RClasses and RClassSplits describe the class-condensed precedence
	// representation: how many R-equivalence classes the final partition
	// has and how many splits refinement forced.
	RClasses     int
	RClassSplits int
	// Timing records how long each sub-phase took.
	Timing Timing
}

// Analyze runs the full pipeline on fn. It is the composition of the three
// sub-phases the pass pipeline runs separately: Prepare (shared inputs),
// ComputeD1 (cycle detection over the synchronization pairs), and
// RefineSync (the rest of the synchronization analysis of section 5).
func Analyze(fn *ir.Fn, opts Options) *Result {
	res := Prepare(fn)
	res.ComputeD1(opts)
	res.RefineSync(opts)
	return res
}

// Prepare builds the inputs every delay computation shares: the access
// graph, the conflict set, and the dominator/postdominator trees.
func Prepare(fn *ir.Fn) *Result {
	t0 := time.Now()
	res := &Result{
		Fn:   fn,
		AG:   ir.BuildAccessGraph(fn),
		CS:   conflict.Compute(fn),
		Dom:  ir.BuildDom(fn),
		PDom: ir.BuildPostDom(fn),
	}
	res.Timing.Prepare = time.Since(t0)
	return res
}

// syncIDs lists the synchronization accesses of fn.
func syncIDs(fn *ir.Fn) []int {
	ids := []int{}
	for _, a := range fn.Accesses {
		if a.Kind.IsSync() {
			ids = append(ids, a.ID)
		}
	}
	return ids
}

// ComputeD1 runs step 2 of section 5.1: back-path detection restricted to
// the pairs with a synchronization endpoint, into res.D1. It sets
// res.Baseline to the plain Shasha–Snir set in deferred form: on its first
// read, D1 plus the same search over the pairs with no synchronization
// endpoint. A pair's answer does not depend on which other pairs are asked
// about, so the two searches split the baseline's pairs and none is searched
// twice. Requires Prepare.
func (res *Result) ComputeD1(opts Options) {
	t0 := time.Now()
	keep, rest := d1Queries(res.Fn, opts)
	res.D1 = delay.Compute(res.AG, res.CS, keep)
	d1, ag, cs := res.D1, res.AG, res.CS
	res.Baseline = delay.Deferred(res.Fn, func() *delay.Set {
		return d1.Union(delay.Compute(ag, cs, rest))
	})
	res.Timing.D1 = time.Since(t0)
}

// d1Queries returns step 2's query, over the pairs with a synchronization
// endpoint, and the baseline's remainder, over the pairs without one.
func d1Queries(fn *ir.Fn, opts Options) (keep, rest delay.Constraints) {
	keep = delay.Constraints{Exact: opts.Exact,
		Endpoints: delay.EndpointFilter{IDs: syncIDs(fn), Keep: true}}
	rest = keep
	rest.Endpoints.Keep = false
	return keep, rest
}

// RefineSync runs steps 3–6 of section 5.1: the precedence relation R,
// lock guards, barrier phase partitioning, and the final refined delay set
// D. Requires Prepare and ComputeD1.
func (res *Result) RefineSync(opts Options) {
	fn := res.Fn

	// Steps 3-4: seed R and close it under the dominator rule and
	// transitivity (precedence.go). D1's A-major form feeds both the
	// dominator filters and the lock confinement sweeps.
	t0 := time.Now()
	r := newClassPrecedence(len(fn.Accesses))
	res.R = r
	src := res.D1.SourceMatrix()
	seedPrecedence(fn, opts, func(A, B []int32) { r.addRect(A, B) })
	r.refine(res.dominatorFilters(src))
	res.Timing.Condense, res.RClasses, res.RClassSplits = r.maint, r.nc, r.splits
	res.Timing.Precedence = time.Since(t0) - res.Timing.Condense

	res.orientAndDetect(opts, syncIDs(fn), src)
}

// Summary renders a human-readable account of the analysis for the driver.
func (res *Result) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "accesses:        %d\n", len(res.Fn.Accesses))
	fmt.Fprintf(&sb, "conflict pairs:  %d\n", res.CS.Size())
	fmt.Fprintf(&sb, "baseline delays: %d (Shasha-Snir)\n", res.Baseline.Size())
	fmt.Fprintf(&sb, "D1 delays:       %d\n", res.D1.Size())
	fmt.Fprintf(&sb, "precedence |R|:  %d\n", res.R.Size())
	if c := res.RClasses; c > 0 {
		fmt.Fprintf(&sb, "R classes:       %d (%d splits, %.1fx condensed)\n",
			c, res.RClassSplits, float64(len(res.Fn.Accesses))/float64(c))
	}
	fmt.Fprintf(&sb, "final delays:    %d\n", res.D.Size())
	guarded := make([]int, 0, len(res.Guards))
	for id := range res.Guards {
		guarded = append(guarded, id)
	}
	sort.Ints(guarded)
	if len(guarded) > 0 {
		fmt.Fprintf(&sb, "lock-guarded accesses: %v\n", guarded)
	}
	return sb.String()
}
