package codegen

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/ir"
	"repro/internal/progen"
	"repro/internal/target"
)

// snapshot copies each block's statement list.
func snapshot(p *target.Prog) [][]target.Stmt {
	out := make([][]target.Stmt, len(p.Blocks))
	for i, b := range p.Blocks {
		out[i] = slices.Clone(b.Stmts)
	}
	return out
}

// site is where a snapshot holds an access's get or put; blk is -1 where
// it holds none.
type site struct{ blk, idx int }

// sitesOf indexes a snapshot's gets and puts by access ID.
func sitesOf(snap [][]target.Stmt, n int) []site {
	out := make([]site, n)
	for i := range out {
		out[i].blk = -1
	}
	for b, stmts := range snap {
		for i, s := range stmts {
			if a := effectOf(s).acc; a != nil && a.Kind.IsData() {
				out[a.ID] = site{b, i}
			}
		}
	}
	return out
}

// walkBack visits, latest first, every statement on a path that ends just
// before statement idx of block blk. A path ends at a statement stop
// accepts or on reaching block stopBlk, which it does not enter. It
// reports whether some path reaches the program entry instead.
func walkBack(snap [][]target.Stmt, preds [][]int, blk, idx, stopBlk int, stop func(target.Stmt) bool, visit func(target.Stmt)) (escaped bool) {
	scan := func(b, from int) (stopped bool) {
		for i := from - 1; i >= 0; i-- {
			if stop(snap[b][i]) {
				return true
			}
			visit(snap[b][i])
		}
		return false
	}
	seen := make([]bool, len(snap))
	var stack []int
	if !scan(blk, idx) {
		escaped = blk == 0
		stack = append(stack, preds[blk]...)
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b] || b == stopBlk {
			continue
		}
		seen[b] = true
		if !scan(b, len(snap[b])) {
			escaped = escaped || b == 0
			stack = append(stack, preds[b]...)
		}
	}
	return escaped
}

// checkLegality holds one oneway + CSE compile's section 7 rewrites to the
// delay set, from the program text before and after each step rather than
// from the passes' own lists. A rewrite moves an access; none may cross an
// access that D orders against the moved one:
//
//   - a hoisted get moves to its new block's end, so no access on a path
//     from there to its old place may be ordered before it;
//   - a reused or forwarded get moves up to the get or put that supplied
//     its value, so no access issued between the two may be ordered
//     before it; an eliminated get on the way issues nothing and passes
//     the value on;
//   - a put deleted by write-back moves down to the later put to its
//     address, so no access between them may be ordered after it.
func checkLegality(t *testing.T, c reuseCase) {
	t.Helper()
	g := New(c.fn, c.delays, c.opts)
	lowered := snapshot(g.prog)
	runSteps(g, steps[:reuseStep()])
	hoisted := snapshot(g.prog)
	issued := slices.Clone(g.infos)
	g.cse()
	gone := func(id int) bool { return issued[id] != nil && g.infos[id] == nil }
	preds := g.predecessors()
	d := c.delays
	before, after := sitesOf(lowered, len(c.fn.Accesses)), sitesOf(hoisted, len(c.fn.Accesses))
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("%s: %s", c.name, fmt.Sprintf(format, args...))
	}
	for _, acc := range c.fn.Accesses {
		if acc.Kind != ir.AccRead {
			continue
		}
		o, n := before[acc.ID], after[acc.ID]
		if o.blk < 0 || n.blk < 0 || o.blk == n.blk {
			continue
		}
		escaped := walkBack(lowered, preds, o.blk, o.idx, n.blk, func(target.Stmt) bool { return false }, func(s target.Stmt) {
			x := effectOf(s).acc
			if x == nil {
				return
			}
			if xs := after[x.ID]; xs.blk == n.blk && xs.idx < n.idx {
				return // hoisted ahead of acc into the same block
			}
			if d.Has(x.ID, acc.ID) {
				fail("a%d hoisted across a%d, which D orders before it", acc.ID, x.ID)
			}
		})
		if escaped {
			fail("a%d hoisted into b%d, which does not cut it off from the entry", acc.ID, n.blk)
		}
	}
	for _, acc := range c.fn.Accesses {
		if !gone(acc.ID) {
			continue
		}
		b, i := after[acc.ID].blk, after[acc.ID].idx
		if acc.Kind == ir.AccWrite {
			later := false
			for _, s := range hoisted[b][i+1:] {
				x := effectOf(s).acc
				if _, ok := s.(*target.Put); ok && sameAddress(x, acc) {
					later = true
					break
				}
				if x != nil && !gone(x.ID) && d.Has(acc.ID, x.ID) {
					fail("write-back moves a%d below a%d, which D orders after it", acc.ID, x.ID)
				}
			}
			if !later {
				fail("a%d deleted with no later put to its address in its block", acc.ID)
			}
			continue
		}
		source := func(s target.Stmt) bool {
			switch s := s.(type) {
			case *target.Get:
				return sameAddress(s.Acc, acc) && !gone(s.Acc.ID)
			case *target.Put:
				return sameAddress(s.Acc, acc)
			}
			return false
		}
		escaped := walkBack(hoisted, preds, b, i, -1, source, func(s target.Stmt) {
			if x := effectOf(s).acc; x != nil && !gone(x.ID) && d.Has(x.ID, acc.ID) {
				fail("a%d takes a value from before a%d, which D orders before it", acc.ID, x.ID)
			}
		})
		if escaped {
			fail("a%d eliminated, but a path from the entry neither fetches nor writes its address", acc.ID)
		}
	}
}

// TestRewritesKeepDelayOrder: no section 7 rewrite crosses an access the
// delay set orders against it, on the five kernels at 4 and 64
// processors, 150 generated programs at 4 processors and 100 big ones at
// 16, the two verifier programs built to catch such a crossing, and the
// 2k tier.
func TestRewritesKeepDelayOrder(t *testing.T) {
	for _, k := range apps.All() {
		for _, procs := range []int{4, 64} {
			fn := ir.MustBuild(k.Source(procs, 1), ir.BuildOptions{Procs: procs})
			checkLegality(t, oneWayCase(fmt.Sprintf("%s/p%d", k.Name, procs), fn))
		}
	}
	for seed := int64(0); seed < 150; seed++ {
		fn := ir.MustBuild(progen.Generate(seed, progen.Options{Procs: 4}), ir.BuildOptions{Procs: 4})
		checkLegality(t, oneWayCase(fmt.Sprintf("progen seed %d", seed), fn))
	}
	for seed := int64(0); seed < 100; seed++ {
		opts := progen.BigProc(16)
		fn := ir.MustBuild(progen.Generate(seed, opts), ir.BuildOptions{Procs: opts.Procs})
		checkLegality(t, oneWayCase(fmt.Sprintf("big16 seed %d", seed), fn))
	}
	files, _ := filepath.Glob("../scverify/testdata/*.ms")
	if len(files) == 0 {
		t.Fatal("no verifier programs")
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		fn := ir.MustBuild(string(src), ir.BuildOptions{Procs: 2})
		checkLegality(t, oneWayCase(filepath.Base(f), fn))
	}
	if testing.Short() {
		t.Skip("the 2k tier in -short mode")
	}
	checkLegality(t, oneWayCase("acc2048", acc2048(t)))
}
