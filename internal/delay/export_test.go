package delay

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/conflict"
	"repro/internal/graph"
	"repro/internal/ir"
)

// TierFn builds a pinned scale tier, exported for the classSolve count test,
// which needs syncanal's constraints and so lives in package delay_test.
var TierFn = tierFn

// ClassWork is classSolve's work in classWork's units, exported for the
// same test.
type ClassWork = classWork

// WatchClassWork sums the counts of every classSolve until the test ends.
// Compute solves its class regions one after another, so the hook is never
// called concurrently.
func WatchClassWork(t testing.TB) *ClassWork {
	sum := &ClassWork{}
	classWorkHook = sum.add
	t.Cleanup(func() { classWorkHook = nil })
	return sum
}

// HubWork is hubCompute's work in hubWork's units.
type HubWork = hubWork

// HubQuery is one hubCompute call: the pairs its endpoint filter considered
// — "all", "keep" (a listed endpoint) or "skip" (no listed endpoint) — and
// its work.
type HubQuery struct {
	Filter string
	Work   HubWork
}

// HubWatch records hubCompute calls. A deferred baseline fills on whichever
// goroutine reads it first, so calls may come from several goroutines.
type HubWatch struct {
	mu      sync.Mutex
	queries []HubQuery
}

// Queries returns the calls recorded so far, in the order they finished.
func (w *HubWatch) Queries() []HubQuery {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]HubQuery(nil), w.queries...)
}

// WatchHubWork records every hubCompute call until the test ends.
func WatchHubWork(t testing.TB) *HubWatch {
	w := &HubWatch{}
	hubWorkHook = func(ends endpointMask, work hubWork) {
		q := HubQuery{Filter: "all", Work: work}
		switch {
		case ends.keep:
			q.Filter = "keep"
		case ends.bits != nil:
			q.Filter = "skip"
		}
		w.mu.Lock()
		w.queries = append(w.queries, q)
		w.mu.Unlock()
	}
	t.Cleanup(func() { hubWorkHook = nil })
	return w
}

// SharedCells re-decides every cell classSolve's shared searches decide,
// the way each cell was decided before them: s2Plain when the cover misses
// the uncut reach of the target's seed row, else cellRestrict's bracket.
type SharedCells struct {
	mu      sync.Mutex
	cells   int
	reaches map[string][]uint64
	diff    string
}

// Cells reports how many cells have been re-decided.
func (c *SharedCells) Cells() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cells
}

// CheckSharedCells re-decides every shared-search cell until the test ends,
// and fails the test if any verdict differs.
func CheckSharedCells(t testing.TB) *SharedCells {
	c := &SharedCells{reaches: make(map[string][]uint64)}
	sharedCellHook = c.check
	t.Cleanup(func() {
		sharedCellHook = nil
		if c.diff != "" {
			t.Errorf("shared searches: %s", c.diff)
		}
	})
	return c
}

var cellNames = [...]string{s2Plain: "plain", s2Keep: "keep", s2Drop: "drop", s2PerPair: "per pair"}

func (c *SharedCells) check(gd *mixedAdj, mask, cov, ta, drow, aG, bG []uint64, got uint8) {
	want := s2Plain
	if graph.AndAny(cov, c.reach(gd, mask, drow)) {
		want, _ = cellRestrict(gd, mask, cov, ta, drow, aG, bG, make([]uint64, len(mask)), make([]uint64, len(mask)), nil)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cells++
	if got != want && c.diff == "" {
		c.diff = fmt.Sprintf("a cell decided %s, the bracket says %s (cell %d checked)", cellNames[got], cellNames[want], c.cells)
	}
}

// reach returns the region nodes reachable from the seed row drow & mask,
// the seeds included, memoized per region and seed row: a restrictSweep
// with no target runs to exhaustion.
func (c *SharedCells) reach(gd *mixedAdj, mask, drow []uint64) []uint64 {
	key := fmt.Sprint(mask, drow)
	c.mu.Lock()
	r, ok := c.reaches[key]
	c.mu.Unlock()
	if ok {
		return r
	}
	r = make([]uint64, len(mask))
	for i := range r {
		r[i] = ^mask[i]
	}
	restrictSweep(gd, drow, mask, r, make([]uint64, len(mask)), new([]int32))
	for i := range r {
		r[i] &= mask[i]
	}
	c.mu.Lock()
	c.reaches[key] = r
	c.mu.Unlock()
	return r
}

// DenseSharedCase returns the dense differential program's graphs and its
// classed exact variant with cover ids: a region classSolve decides by the
// shared searches.
func DenseSharedCase(t testing.TB) (*ir.AccessGraph, *conflict.Set, Constraints) {
	fn := denseFn(t)
	ag, cs := ir.BuildAccessGraph(fn), conflict.Compute(fn)
	for _, v := range denseVariants(fn, cs) {
		if v.name == "classed+removed+exact+ids" {
			return ag, cs, v.con
		}
	}
	t.Fatal("no dense variant has cover ids")
	return nil, nil, Constraints{}
}
