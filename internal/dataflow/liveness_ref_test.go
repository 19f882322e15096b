package dataflow

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/ir"
	"repro/internal/progen"
	"repro/internal/sem"
	"repro/internal/source"
)

// refLiveness is the []bool round-robin fixpoint ComputeLiveness used to
// be, kept as the reference the bitset worklist solver is held to: every
// block re-evaluated every round, statement by statement, until nothing
// changes.
type refLiveness struct {
	fn  *ir.Fn
	out [][]bool
}

// refTransfer steps the live set backward across one statement.
func refTransfer(s ir.Stmt, cur []bool) {
	switch s := s.(type) {
	case *ir.Assign:
		cur[s.Dst] = false
	case *ir.Load:
		cur[s.Dst] = false
	}
	for _, l := range stmtUses(s, nil) {
		cur[l] = true
	}
}

func refTermUses(t ir.Term, cur []bool) {
	if br, ok := t.(*ir.Branch); ok {
		for _, l := range ir.ExprLocals(br.Cond, nil) {
			cur[l] = true
		}
	}
}

func refComputeLiveness(fn *ir.Fn) *refLiveness {
	nl, nb := len(fn.Locals), len(fn.Blocks)
	lv := &refLiveness{fn: fn, out: make([][]bool, nb)}
	in := make([][]bool, nb)
	for i := range in {
		lv.out[i] = make([]bool, nl)
		in[i] = make([]bool, nl)
	}
	for changed := true; changed; {
		changed = false
		for bi := nb - 1; bi >= 0; bi-- {
			b := fn.Blocks[bi]
			out := make([]bool, nl)
			for _, s := range b.Succs() {
				for l, v := range in[s.ID] {
					out[l] = out[l] || v
				}
			}
			cur := append([]bool(nil), out...)
			refTermUses(b.Term, cur)
			for i := len(b.Stmts) - 1; i >= 0; i-- {
				refTransfer(b.Stmts[i], cur)
			}
			if !equalBools(out, lv.out[bi]) || !equalBools(cur, in[bi]) {
				lv.out[bi], in[bi] = out, cur
				changed = true
			}
		}
	}
	return lv
}

func equalBools(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// liveAfter returns the whole live set just after statement idx of b.
func (lv *refLiveness) liveAfter(b *ir.Block, idx int) []bool {
	cur := append([]bool(nil), lv.out[b.ID]...)
	refTermUses(b.Term, cur)
	for i := len(b.Stmts) - 1; i > idx; i-- {
		refTransfer(b.Stmts[i], cur)
	}
	return cur
}

// checkAgainstRef compares LiveAfter with the reference at every
// (block, statement, local) — a superset of what eliminateDeadGets asks
// (the position and destination of each Load).
func checkAgainstRef(t *testing.T, label string, fn *ir.Fn) {
	t.Helper()
	lv, ref := ComputeLiveness(fn), refComputeLiveness(fn)
	for _, b := range fn.Blocks {
		for idx := range b.Stmts {
			want := ref.liveAfter(b, idx)
			for l := range fn.Locals {
				if got := lv.LiveAfter(b, idx, ir.LocalID(l)); got != want[l] {
					t.Fatalf("%s: block %d stmt %d local %s: LiveAfter = %v, reference %v",
						label, b.ID, idx, fn.Locals[l].Name, got, want[l])
				}
			}
		}
	}
}

func TestLivenessMatchesReferenceGrid(t *testing.T) {
	opts := progen.Options{
		Procs: 4, MaxPhases: 3, MaxStmts: 6, MaxDepth: 2,
		Arrays: 3, Scalars: 3, Events: 2, Locks: 2,
	}
	checked := 0
	for seed := int64(0); seed < 250 && checked < 150; seed++ {
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
		checkAgainstRef(t, fmt.Sprintf("seed %d", seed), fn)
		checked++
	}
	if checked < 150 {
		t.Fatalf("only %d buildable seeds, want >= 150", checked)
	}
}

func TestLivenessMatchesReferenceKernels(t *testing.T) {
	for _, k := range apps.All() {
		checkAgainstRef(t, k.Name, ir.MustBuild(k.Source(8, 1), ir.BuildOptions{Procs: 8}))
	}
}

// TestLiveAfterDoesNotAllocate holds LiveAfter to its contract: a query
// about one local walks the block's tail and reads one bit.
func TestLiveAfterDoesNotAllocate(t *testing.T) {
	fn := ir.MustBuild(apps.ByName("Health").Source(8, 1), ir.BuildOptions{Procs: 8})
	lv := ComputeLiveness(fn)
	allocs := testing.AllocsPerRun(10, func() {
		for _, b := range fn.Blocks {
			for idx, s := range b.Stmts {
				if ld, ok := s.(*ir.Load); ok {
					lv.LiveAfter(b, idx, ld.Dst)
				}
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("LiveAfter allocated %.0f times per sweep over the loads, want 0", allocs)
	}
}
