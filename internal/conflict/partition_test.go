package conflict_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/conflict"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/progen"
	"repro/internal/sem"
	"repro/internal/source"
)

// build parses, checks and lowers src at procs processors.
func build(src string, procs int) (*ir.Fn, error) {
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

// TestGroupsAreRowClasses checks that Set's groups are the partition of the
// accesses by conflict row, on the 150-seed grid, the kernels at 4 and 64
// processors, testdata/*.ms and, outside -short, the acc2048 and acc8192
// tiers: two accesses share a group exactly when their rows are equal, the
// member sets agree with GroupOf, each row holds whole groups, and each
// GroupAdj list is ascending, duplicate-free and names exactly the groups
// its row holds. Both tiers have 25 groups.
func TestGroupsAreRowClasses(t *testing.T) {
	type program struct {
		label  string
		fn     *ir.Fn
		groups int // pinned group count, or 0
	}
	var progs []program
	grid := progen.Options{Procs: 4, MaxPhases: 3, MaxStmts: 6, MaxDepth: 2, Arrays: 3, Scalars: 3, Events: 2, Locks: 2}
	for seed := int64(0); seed < 250 && len(progs) < 150; seed++ {
		if fn, err := build(progen.Generate(seed, grid), 4); err == nil && len(fn.Accesses) > 0 {
			progs = append(progs, program{fmt.Sprintf("seed %d", seed), fn, 0})
		}
	}
	if len(progs) < 150 {
		t.Fatalf("only %d buildable seeds, want >= 150", len(progs))
	}
	for _, procs := range []int{4, 64} {
		for _, k := range apps.All() {
			fn := ir.MustBuild(k.Source(procs, 1), ir.BuildOptions{Procs: procs})
			progs = append(progs, program{fmt.Sprintf("%s@%d", k.Name, procs), fn, 0})
		}
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
		progs = append(progs, program{filepath.Base(f), ir.MustBuild(string(src), ir.BuildOptions{Procs: 4}), 0})
	}
	if !testing.Short() {
		for _, name := range []string{"acc2048", "acc8192"} {
			tier, _ := progen.FindScaleTier(name)
			fn, err := build(progen.Generate(tier.Seed, tier.Opts), tier.Opts.Procs)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			progs = append(progs, program{name, fn, 25})
		}
	}

	for _, p := range progs {
		cs := conflict.Compute(p.fn)
		n, G := cs.N(), cs.NumGroups()
		if p.groups > 0 && G != p.groups {
			t.Fatalf("%s: %d groups, want %d", p.label, G, p.groups)
		}
		first := make([]int, G) // group -> its first member
		for g := range first {
			first[g] = -1
		}
		rows := make(map[string]int32) // row -> the group of its first holder
		for a := 0; a < n; a++ {
			g := cs.GroupOf(a)
			if !graph.BitGet(cs.GroupMembers(int(g)), a) {
				t.Fatalf("%s: access %d missing from its group %d's members", p.label, a, g)
			}
			if first[g] < 0 {
				first[g] = a
			}
			key := fmt.Sprint(cs.Row(a))
			if h, ok := rows[key]; !ok {
				rows[key] = g
			} else if h != g {
				t.Fatalf("%s: access %d (group %d) has the row of group %d", p.label, a, g, h)
			}
		}
		if len(rows) != G {
			t.Fatalf("%s: %d distinct rows, %d groups", p.label, len(rows), G)
		}
		for g := 0; g < G; g++ {
			if first[g] < 0 {
				t.Fatalf("%s: group %d has no member", p.label, g)
			}
			row := cs.Row(first[g])
			for a := 0; a < n; a++ {
				if graph.BitGet(row, a) != graph.BitGet(row, first[cs.GroupOf(a)]) {
					t.Fatalf("%s: group %d's row splits group %d", p.label, g, cs.GroupOf(a))
				}
			}
			adj := cs.GroupAdj(g)
			var want []int32
			for g2, a := range first {
				if graph.BitGet(row, a) {
					want = append(want, int32(g2))
				}
			}
			if !slices.Equal(adj, want) {
				t.Fatalf("%s: GroupAdj(%d) = %v, its row holds the groups %v", p.label, g, adj, want)
			}
		}
	}
}

// TestDistinctKeysMerge: the reads of A[1] and A[2] are distinct syntactic
// keys with one conflict row — each conflicts with the write of A[MYPROC]
// alone — so they share a group, while the write, whose row holds the
// reads, has its own.
func TestDistinctKeysMerge(t *testing.T) {
	fn := ir.MustBuild(`
shared int A[8];
func main() {
    A[MYPROC] = MYPROC;
    local int x = A[1] + A[2];
}
`, ir.BuildOptions{Procs: 4})
	cs := conflict.Compute(fn)
	if len(fn.Accesses) != 3 || cs.NumGroups() != 2 {
		t.Fatalf("%d accesses in %d groups, want 3 in 2", len(fn.Accesses), cs.NumGroups())
	}
	if cs.GroupOf(1) != cs.GroupOf(2) || cs.GroupOf(0) == cs.GroupOf(1) {
		t.Fatalf("groups %d %d %d, want the two reads together and the write apart", cs.GroupOf(0), cs.GroupOf(1), cs.GroupOf(2))
	}
}
