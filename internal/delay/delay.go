// Package delay implements cycle detection: the computation of delay sets
// in the style of Shasha & Snir, as reformulated in section 4 of the paper.
//
// A delay edge [a, b] (a before b in program order P) says the compiler and
// machine must not initiate b until a has completed. The sufficient delay
// set D contains every program-order pair that has a *back-path*: a path
// from b back to a in P ∪ C whose first and last edges are conflict edges.
// Enforcing D makes every weakly consistent execution sequentially
// consistent (Theorem 1 of the paper).
//
// That one definition is implemented twice, once to be fast and once to be
// read:
//
//   - the production engine (region.go, classsolve.go) answers the
//     polynomial form of the question, which ignores the simple-path side
//     conditions of Definition 1. That over-approximates the set of
//     back-paths, hence over-approximates D — always correct, sometimes
//     larger. This is exactly the SPMD two-copy reduction of Krishnamurthy
//     & Yelick (LCPC 1994): conceptually every access has a local and a
//     remote copy, a back-path leaves the local copy of b on a conflict
//     edge, wanders the remote copies along program and conflict edges, and
//     re-enters the local copy of a on a conflict edge. The engine resolves
//     all pairs of one target b together and confines every search to one
//     strongly connected component of the mixed graph. Two solvers share
//     the work: the hub solver takes the symmetric query without removal,
//     whatever its endpoint filter, and the class solver every other query,
//     region by region (region.go says what selects each);
//   - the oracle (reference.go, ComputeReference) runs one search per
//     program-order pair over adjacency materialized through closures. It
//     is what the differential tests hold the production engine to, and it
//     alone carries the exact search (Constraints.Exact), which enumerates
//     simple paths (no repeated accesses), is exponential in the worst
//     case, and is bounded at ExactLimit accesses; it is intended for small
//     programs and for the ablation comparing delay-set sizes.
//
// Section 5.1 asks the question in two shapes, and Constraints describes
// exactly those: unconstrained over the pairs with a synchronization
// endpoint (step 2's D1, an endpoint filter that keeps), and
// oriented-and-removed over the data–data pairs (directed conflict edges
// from the precedence relation R, per-pair node removal by precedence and
// mutual exclusion, synchronization endpoints skipped). The Shasha–Snir
// baseline is D1 plus the unconstrained query that skips the same
// endpoints; a caller that may never read it builds it as a Deferred set.
package delay

import (
	"fmt"
	"math/bits"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/conflict"
	"repro/internal/graph"
	"repro/internal/ir"
)

// Pair is a delay edge: Pair{A, B} means access A must complete before
// access B is initiated; A precedes B in program order.
type Pair struct {
	A, B int
}

// Set is a computed delay set: one bitset row per target b (bit a set iff
// [a, b] is a delay edge) — the shape the engine emits directly, since it
// resolves all pairs of one target together, and the only one that survives
// the Theta(n^2)-pair results of programs with tens of thousands of
// accesses.
//
// The rows are the whole state: Size counts them and Pairs decodes them on
// every call, and nothing is remembered between calls. Reading a Set
// therefore never writes to it, so a finished Set can be shared between
// goroutines (every Program generated from one splitc.Front reads the same
// four); the callers of Size and Pairs each ask a handful of times per
// compile, which is what made the memo they replace not worth its race.
//
// A Deferred set is the one exception, and it writes once: its rows are
// computed by the first read of any kind, under a sync.Once, so concurrent
// first readers wait for a single fill and every later read sees the
// finished rows. Every method reaches the rows through rows().
type Set struct {
	Fn   *ir.Fn
	byB  *graph.BitMatrix
	fill func() *Set // deferred form only; set at construction, never written after
	once sync.Once
}

// NewSet returns an empty delay set for fn.
func NewSet(fn *ir.Fn) *Set {
	return &Set{Fn: fn, byB: graph.NewBitMatrix(len(fn.Accesses))}
}

// Deferred returns a delay set for fn whose pairs are fill's, computed on
// the set's first read rather than now. fill runs at most once, on the
// goroutine of that first read, and must not read the set it fills.
func Deferred(fn *ir.Fn, fill func() *Set) *Set {
	return &Set{Fn: fn, fill: fill}
}

// rows returns the set's target rows, filling a deferred set first.
func (s *Set) rows() *graph.BitMatrix {
	if s.fill != nil {
		s.once.Do(func() { s.byB = s.fill().rows() })
	}
	return s.byB
}

// Add inserts a delay edge.
func (s *Set) Add(a, b int) { s.rows().Set(b, a) }

// Has reports whether [a, b] is a delay edge.
func (s *Set) Has(a, b int) bool { return s.rows().Has(b, a) }

// Size returns the number of delay edges, counted over the n^2/64 words.
func (s *Set) Size() int { return s.rows().Count() }

// TargetRow returns target b's row as a source-access bitset (bit a set iff
// [a, b] present). Callers must not modify the row. This is the
// word-parallel consumption path: the precedence derivation filters whole
// target rows against dominator masks instead of iterating Pairs.
func (s *Set) TargetRow(b int) []uint64 { return s.rows().Row(b) }

// SourceMatrix returns the A-major transpose of the set (row a holds the
// targets of every [a, b]). The matrix is freshly built on each call; the
// caller owns it.
func (s *Set) SourceMatrix() *graph.BitMatrix { return s.rows().Transpose() }

// Pairs returns the delay edges sorted by (A, B). The slice is freshly
// decoded on each call; the caller owns it.
func (s *Set) Pairs() []Pair {
	n := s.Size()
	if n == 0 {
		return nil
	}
	out := make([]Pair, 0, n)
	// Transposing to A-major rows makes the decode emit pairs already in
	// (A, B) order: no sort needed.
	byA := s.SourceMatrix()
	for a := 0; a < byA.N; a++ {
		for wi, w := range byA.Row(a) {
			for ; w != 0; w &= w - 1 {
				out = append(out, Pair{a, wi<<6 + bits.TrailingZeros64(w)})
			}
		}
	}
	return out
}

// Union returns a new set containing the edges of both sets (word-parallel
// row ORs).
func (s *Set) Union(o *Set) *Set {
	u := NewSet(s.Fn)
	uw, ow := u.byB.Words(), o.rows().Words()
	for i, w := range s.rows().Words() {
		uw[i] = w | ow[i]
	}
	return u
}

// String renders the delay set for diagnostics.
func (s *Set) String() string {
	var sb strings.Builder
	for _, p := range s.Pairs() {
		fmt.Fprintf(&sb, "[%s -> %s]\n", s.Fn.Accesses[p.A], s.Fn.Accesses[p.B])
	}
	return sb.String()
}

// Constraints parameterizes the back-path search with synchronization
// information. The zero value means: conflict edges usable in both
// directions, no nodes removed, every program-order pair considered —
// plain Shasha & Snir. DESIGN.md §18 tabulates which caller sets which
// field and which solver reads it.
type Constraints struct {
	// ConflictDir, when non-nil, restricts the direction in which a
	// conflict edge may be traversed: the edge x -> y is usable only if
	// ConflictDir(x, y). Orientation comes from the precedence relation
	// (step 5 of the section 5.1 algorithm).
	ConflictDir func(x, y int) bool
	// Removed, when non-nil, excludes access z from back-path searches for
	// the pair (a, b) (steps illustrated by Figure 6 and the lock rule of
	// section 5.3). Endpoints are never excluded.
	Removed func(a, b, z int) bool
	// Exact enables the exponential simple-path search on programs of at
	// most ExactLimit accesses; larger ones get the polynomial search.
	Exact bool

	// Endpoints restricts the pairs considered by their endpoints (see
	// EndpointFilter). Step 2 of section 5.1 keeps the pairs with a
	// synchronization endpoint, which is D1; the data–data pass skips them,
	// because they are already in D1.
	Endpoints EndpointFilter
	// DirRows, when non-nil, supplies the directed conflict adjacency as
	// row bitsets (bit (x, y) set iff the conflict edge x -> y is usable).
	// It must agree with ConflictDir when both are set. The production
	// engine consumes it word-parallel instead of calling ConflictDir per
	// edge; the oracle prefers ConflictDir, which preserves its
	// independence, and reads DirRows only when no ConflictDir is given. A
	// *graph.ClassRows backing shares one physical row per equivalence
	// class, so callers with class structure (AccessClass) never
	// materialize n rows.
	DirRows graph.Rows
	// Comp, when non-nil, supplies a precomputed condensation of the mixed
	// graph (program order plus DirRows/ConflictDir edges). Its components
	// must be closed under the mixed edges: any union of SCCs of a
	// SUPERgraph is sound, because every back-path of the actual graph
	// stays inside one component of any coarser closed partition. Callers
	// that already condensed a supergraph (syncanal's region statistics)
	// share the result.
	Comp *graph.Condensation
	// RemovedCover, when non-nil alongside Removed, returns the bitset of
	// exactly the accesses the Removed predicate excludes for the pair
	// (a, b) — up to the endpoints, which the engine exempts itself — and
	// the row's id. It may build the row in scratch, with a negative id, or
	// return a row it shares between pairs and between concurrent calls,
	// with an id that pairs get the same row under; either way the caller
	// only reads it. The engine folds the cover into each restricted search
	// word-parallel instead of asking Removed per node, skips the removal
	// where the cover misses a search's reach, and shares its searches
	// between the cells of one id, which is what makes Removed constraints
	// affordable at tens of thousands of accesses. Without it the engine
	// builds the cover from Removed, pair by pair. A cover holding an access
	// Removed keeps yields wrong results.
	RemovedCover func(a, b int, scratch []uint64) ([]uint64, int)
	// AccessClass, when non-nil, partitions the accesses into constraint
	// classes the engine may treat as interchangeable: two accesses with
	// equal class ids must have identical DirRows rows AND columns,
	// identical RemovedCover output in either pair position (for any fixed
	// partner), Removed answers that depend on each pair endpoint only
	// through its class, and identical conflict rows. The engine then
	// shares its searches between the targets of one seed row, decides the
	// removal once per (source class, target class) cell, and runs the
	// exact per-pair search only in the cells that decision leaves open.
	// Without it every access is its own class. Declaring
	// interchangeability that does not hold yields wrong results;
	// syncanal's tests check it differentially against a per-access
	// oracle that declares no classes.
	AccessClass []int32
}

// EndpointFilter selects program-order pairs by their endpoints. With Keep
// it considers only the pairs (a, b) with a or b listed in IDs; without it,
// only the pairs with neither listed. The zero value considers every pair.
// The two polarities over the same IDs partition the pairs, and a pair's
// back-path does not depend on which other pairs are asked about, so the
// keep and skip sets of one query are disjoint and their union is the
// unfiltered set.
type EndpointFilter struct {
	IDs  []int
	Keep bool
}

// endpointMask is an EndpointFilter as a bitset over the accesses; a nil
// bits means the filter considers every pair.
type endpointMask struct {
	bits []uint64
	keep bool
}

func (f EndpointFilter) mask(w int) endpointMask {
	if !f.Keep && len(f.IDs) == 0 {
		return endpointMask{}
	}
	m := endpointMask{bits: make([]uint64, w), keep: f.Keep}
	for _, x := range f.IDs {
		graph.BitSet(m.bits, x)
	}
	return m
}

// ExactLimit is the largest program, in accesses, the exact search
// (Constraints.Exact) runs on.
const ExactLimit = 64

// Workers bounds the fan-out of Compute's target and region loops. Zero,
// the default, means one worker per available CPU (GOMAXPROCS); 1 forces
// sequential execution. Workers write disjoint target rows, so the
// computed set is identical at any worker count.
var Workers = 0

func workerCount(n int) int {
	w := Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parallelFor runs fn(worker, i) for every i in [0, n) on nw workers.
// Workers claim indices from an atomic counter; fn must write results
// into index-addressed slots. The worker id lets fn reuse per-worker
// scratch.
func parallelFor(n, nw int, fn func(worker, i int)) {
	if nw <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	next := int64(-1)
	var wg sync.WaitGroup
	for k := 0; k < nw; k++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(k)
	}
	wg.Wait()
}

// Compute runs the back-path search and returns the delay set.
//
// For each program-order pair (a, b), a back-path exists iff there is a
// path b -> ... -> a whose first and last edges are conflict edges (they
// may be the same single edge). Interior steps may use program-order edges
// or conflict edges (in their allowed direction).
//
// The production engine (region.go) answers every polynomial query; the
// per-pair oracle (ComputeReference) runs the exact search, which only it
// implements. The zero Constraints is the plain Shasha & Snir delay set,
// the baseline the paper's Figure 12 compares against.
func Compute(ag *ir.AccessGraph, cs *conflict.Set, con Constraints) *Set {
	if con.Exact && len(ag.Fn.Accesses) <= ExactLimit {
		return ComputeReference(ag, cs, con)
	}
	return computeRegion(ag, cs, con)
}
