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
	res := &Result{
		Fn:   fn,
		AG:   ir.BuildAccessGraph(fn),
		CS:   conflict.Compute(fn),
		Dom:  ir.BuildDom(fn),
		PDom: ir.BuildPostDom(fn),
	}
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
	keep, rest := d1Queries(res.Fn, opts)
	res.D1 = delay.Compute(res.AG, res.CS, keep)
	d1, ag, cs := res.D1, res.AG, res.CS
	res.Baseline = delay.Deferred(res.Fn, func() *delay.Set {
		return d1.Union(delay.Compute(ag, cs, rest))
	})
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

// RefineSync runs steps 3–6 of section 5.1 — the precedence relation R,
// then, beside the lock guards of section 5.3 and the barrier phases of
// section 5.2, the refined delay set D. Requires Prepare and ComputeD1.
func (res *Result) RefineSync(opts Options) {
	fn := res.Fn
	n := len(fn.Accesses)

	// Steps 3-4: seed R and close it under the dominator rule and
	// transitivity (precedence.go). D1's A-major form feeds both the
	// dominator filters and the lock confinement sweeps.
	r := newClassPrecedence(n)
	res.R = r
	src := res.D1.SourceMatrix()
	seedPrecedence(fn, opts, func(A, B []int32) { r.addRect(A, B) })
	r.refine(res.dominatorFilters(src))
	res.RClasses, res.RClassSplits = r.nc, r.splits

	// Section 5.3: the lock guards (guards.go), into res.Guards and as the
	// masks the removal reads.
	keys, guards := lockKeys{}, newKeySets(n, 0)
	if !opts.NoLocks {
		keys, guards = computeGuards(res, src)
	}
	lk := newLockMasks(n, guards)
	res.Guards = guards.byAccess(keys)

	// Section 5.2: the barrier phases (cophase.go).
	res.CoPhase = nil
	if !opts.NoBarrier {
		res.CoPhase = buildCoPhase(fn, res.AG)
	}

	// Steps 5-6 (orient.go). The paper's two oriented passes collapse to
	// one: a pair involving a synchronization access is oriented-and-removed
	// in a strict edge-subgraph of D1's instance (orientation only drops
	// directed conflict edges, removal only excludes interior nodes, and the
	// endpoint filter is identical), so every sync-involving oriented delay
	// is already in D1 — TestOrientedSyncSubsetOfD1 holds the engine and its
	// oracle to that containment. Only the data–data pass, phase filter on
	// top of orientation, can add pairs.
	con, _ := res.orientedConstraints(lk, opts)
	res.D = res.D1.Union(delay.Compute(res.AG, res.CS, con))
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
