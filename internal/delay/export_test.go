package delay

import (
	"sync"
	"testing"
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
