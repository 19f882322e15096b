package delay

import "testing"

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
