package ir_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/progen"
	"repro/internal/sem"
	"repro/internal/source"
)

// namedFn is one program of the access-graph corpus.
type namedFn struct {
	name string
	fn   *ir.Fn
}

func buildFn(src string, procs int) (*ir.Fn, error) {
	prog, err := source.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := sem.Check(prog)
	if err != nil {
		return nil, err
	}
	return ir.Build(info, ir.BuildOptions{Procs: procs})
}

// accessGraphCorpus is the kernels at 4 and 64 processors, the progen grid
// at 8 processors over 150 seeds, the sample programs of testdata and the
// pinned acc2048 tier.
func accessGraphCorpus(t *testing.T) []namedFn {
	t.Helper()
	var out []namedFn
	must := func(name, src string, procs int) {
		fn, err := buildFn(src, procs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, namedFn{name, fn})
	}
	for _, k := range apps.All() {
		for _, procs := range []int{4, 64} {
			must(fmt.Sprintf("%s/p%d", k.Name, procs), k.Source(procs, 1), procs)
		}
	}
	built := 0
	for seed := int64(0); seed < 150; seed++ {
		if fn, err := buildFn(progen.Generate(seed, progen.Options{Procs: 8}), 8); err == nil {
			out = append(out, namedFn{fmt.Sprintf("progen p8 seed %d", seed), fn})
			built++
		}
	}
	if built < 100 {
		t.Fatalf("only %d of 150 progen seeds built, want >= 100", built)
	}
	files, err := filepath.Glob("../../testdata/*.ms")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		must(filepath.Base(f), string(src), 4)
	}
	tier, ok := progen.FindScaleTier("acc2048")
	if !ok {
		t.Fatal("no acc2048 tier")
	}
	must("acc2048", progen.Generate(tier.Seed, tier.Opts), tier.Opts.Procs)
	return out
}

// TestPredRowsMatchSuccessorSearch holds the stored predecessor closure to
// its definition: bit a of PredRow(b) is set exactly when a depth-first
// search over Succ from a's successors reaches b.
func TestPredRowsMatchSuccessorSearch(t *testing.T) {
	for _, c := range accessGraphCorpus(t) {
		ag := ir.BuildAccessGraph(c.fn)
		n := len(c.fn.Accesses)
		seen := make([]bool, n)
		var stack []int
		for a := 0; a < n; a++ {
			clear(seen)
			stack = append(stack[:0], ag.Succ[a]...)
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if !seen[u] {
					seen[u] = true
					stack = append(stack, ag.Succ[u]...)
				}
			}
			for b := 0; b < n; b++ {
				if got := graph.BitGet(ag.PredRow(b), a); got != seen[b] {
					t.Fatalf("%s: a%d in PredRow(a%d) = %v, search says %v", c.name, a, b, got, seen[b])
				}
			}
		}
	}
}

// TestSuccessorsMatchMemoizedWalk holds BuildAccessGraph's stamped walk to
// the construction it replaced, element for element (order and
// duplicates included): memoizedSuccessors.
func TestSuccessorsMatchMemoizedWalk(t *testing.T) {
	for _, c := range accessGraphCorpus(t) {
		got := ir.BuildAccessGraph(c.fn).Succ
		want := memoizedSuccessors(c.fn)
		for a := range want {
			if !slices.Equal(got[a], want[a]) {
				t.Fatalf("%s: Succ[a%d] = %v, memoized walk says %v", c.name, a, got[a], want[a])
			}
		}
	}
}

// memoizedSuccessors is the recursive successor construction: first(b)
// lists the accesses reachable from the start of block b without crossing
// another access, memoized per block. A result computed while some
// ancestor was on the search stack may under-approximate (the cycle was
// truncated) and is not memoized.
func memoizedSuccessors(fn *ir.Fn) [][]int {
	adj := make([][]int, len(fn.Accesses))
	memo := make(map[int][]int)
	var first func(b *ir.Block, visiting map[int]bool) (res []int, complete bool)
	first = func(b *ir.Block, visiting map[int]bool) ([]int, bool) {
		if got, ok := memo[b.ID]; ok {
			return got, true
		}
		if visiting[b.ID] {
			return nil, false
		}
		visiting[b.ID] = true
		defer delete(visiting, b.ID)
		for _, s := range b.Stmts {
			if a := ir.AccessOf(s); a != nil {
				res := []int{a.ID}
				memo[b.ID] = res
				return res, true
			}
		}
		var res []int
		seen := map[int]bool{}
		complete := true
		for _, s := range b.Succs() {
			sub, ok := first(s, visiting)
			if !ok {
				complete = false
			}
			for _, id := range sub {
				if !seen[id] {
					seen[id] = true
					res = append(res, id)
				}
			}
		}
		if complete {
			memo[b.ID] = res
		}
		return res, complete
	}
	for _, b := range fn.Blocks {
		var prev *ir.Access
		for _, s := range b.Stmts {
			a := ir.AccessOf(s)
			if a == nil {
				continue
			}
			if prev != nil {
				adj[prev.ID] = append(adj[prev.ID], a.ID)
			}
			prev = a
		}
		if prev != nil {
			for _, s := range b.Succs() {
				sub, _ := first(s, map[int]bool{})
				adj[prev.ID] = append(adj[prev.ID], sub...)
			}
		}
	}
	return adj
}
