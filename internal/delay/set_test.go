package delay

import (
	"math/rand"
	"testing"

	"repro/internal/ir"
)

// fakeFn builds a minimal Fn with n access slots, enough for a Set (which
// only needs len(Fn.Accesses)).
func fakeFn(n int) *ir.Fn {
	fn := &ir.Fn{}
	for i := 0; i < n; i++ {
		fn.Accesses = append(fn.Accesses, &ir.Access{ID: i})
	}
	return fn
}

// TestSetUnionMatchesReference drives chains of unions, interleaved with
// queries, and checks Pairs/Has/Size against a reference map after every
// step; a Set holds nothing but its rows, so a query mid-chain and an Add
// after one must both read the rows as they are now.
func TestSetUnionMatchesReference(t *testing.T) {
	const n = 90
	fn := fakeFn(n)
	rng := rand.New(rand.NewSource(7))
	ref := make(map[Pair]bool)

	mk := func(k int) *Set {
		s := NewSet(fn)
		for i := 0; i < k; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			s.Add(a, b)
			ref[Pair{a, b}] = true
		}
		return s
	}

	acc := mk(30)
	for step := 0; step < 12; step++ {
		acc = acc.Union(mk(25))
		if acc.Size() != len(ref) {
			t.Fatalf("step %d: Size %d, want %d", step, acc.Size(), len(ref))
		}
		if step%3 == 2 {
			checkAgainstRef(t, acc, ref, n)
		}
	}
	checkAgainstRef(t, acc, ref, n)

	s := NewSet(fn)
	s.Add(3, 5)
	_ = s.Pairs()
	s.Add(1, 2)
	p := s.Pairs()
	if len(p) != 2 || p[0] != (Pair{1, 2}) || p[1] != (Pair{3, 5}) {
		t.Fatalf("Pairs after a second Add: %v", p)
	}
}

func checkAgainstRef(t *testing.T, s *Set, ref map[Pair]bool, n int) {
	t.Helper()
	pairs := s.Pairs()
	if len(pairs) != len(ref) {
		t.Fatalf("Pairs has %d entries, want %d", len(pairs), len(ref))
	}
	for i, p := range pairs {
		if !ref[p] {
			t.Fatalf("Pairs contains %v not in reference", p)
		}
		if i > 0 {
			q := pairs[i-1]
			if q.A > p.A || (q.A == p.A && q.B >= p.B) {
				t.Fatalf("Pairs not strictly sorted at %d: %v, %v", i, q, p)
			}
		}
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if s.Has(a, b) != ref[Pair{a, b}] {
				t.Fatalf("Has(%d,%d) = %v, want %v", a, b, s.Has(a, b), ref[Pair{a, b}])
			}
		}
	}
}
