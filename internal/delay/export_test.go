package delay

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/conflict"
	"repro/internal/ir"
)

// TierFn builds a pinned scale tier, exported for the classSolve count test,
// which needs syncanal's constraints and so lives in package delay_test.
var TierFn = tierFn

// ClassWork is classSolve's work in classWork's units, exported for the
// same test.
type ClassWork = classWork

// ClassWatch is the class solver's work summed over regions, and the most
// cells one region decided.
type ClassWatch struct {
	ClassWork
	RegionCells int
}

// WatchClassWork sums the counts of every region classSolve solves until
// the test ends. Compute solves its regions one after another, and the
// tests that set the hook run one Compute at a time, so it is never called
// concurrently.
func WatchClassWork(t testing.TB) *ClassWatch {
	w := &ClassWatch{}
	classWorkHook = func(r classWork) {
		w.add(r)
		w.RegionCells = max(w.RegionCells, r.Cells)
	}
	t.Cleanup(func() { classWorkHook = nil })
	return w
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

// SharedCells re-decides every cell classSolve's shared searches decide
// with cellRestrict's bracket, which decides every cell whose cover has no
// id.
type SharedCells struct {
	mu    sync.Mutex
	cells int
	diff  string
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
	c := &SharedCells{}
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
	want, _ := cellRestrict(gd, mask, cov, ta, drow, aG, bG, make([]uint64, len(mask)), make([]uint64, len(mask)), nil, &rowScans{n: new(int)})
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cells++
	if got != want && c.diff == "" {
		c.diff = fmt.Sprintf("a cell decided %s, the bracket says %s (cell %d checked)", cellNames[got], cellNames[want], c.cells)
	}
}

// DenseSharedCase returns the dense differential program's graphs and its
// classed removal variant with cover ids: a region classSolve decides by
// the shared searches.
func DenseSharedCase(t testing.TB) (*ir.AccessGraph, *conflict.Set, Constraints) {
	fn := denseFn(t)
	ag, cs := ir.BuildAccessGraph(fn), conflict.Compute(fn)
	for _, v := range denseVariants(ag, cs) {
		if v.name == "classed+removed+ids" {
			return ag, cs, v.con
		}
	}
	t.Fatal("no dense variant has cover ids")
	return nil, nil, Constraints{}
}
