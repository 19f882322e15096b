package syncanal

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/delay"
	"repro/internal/graph"
	"repro/internal/ir"
)

// queryProgram is one input of step 6's query checks and the options it
// is analyzed under.
type queryProgram struct {
	label string
	fn    *ir.Fn
	opts  Options
}

// queryPrograms lists the programs step 6's query is checked on: the
// 150-seed grid, the kernels at 4 and 64 processors under both Exact
// values, testdata/*.ms and, outside -short, acc2048. The kernels under
// Exact are what needs the co-phase term of accessClasses' key: without
// it, Health shares rows that are not its accesses' own.
func queryPrograms(t *testing.T) []queryProgram {
	t.Helper()
	var progs []queryProgram
	for seed := int64(0); seed < 250 && len(progs) < 150; seed++ {
		if fn, ok := gridProgram(seed); ok {
			progs = append(progs, queryProgram{fmt.Sprintf("seed %d", seed), fn, Options{}})
		}
	}
	if len(progs) < 150 {
		t.Fatalf("only %d buildable seeds, want >= 150", len(progs))
	}
	for _, procs := range []int{4, 64} {
		for _, k := range apps.All() {
			fn := ir.MustBuild(k.Source(procs, 1), ir.BuildOptions{Procs: procs})
			label := fmt.Sprintf("%s@%d", k.Name, procs)
			progs = append(progs, queryProgram{label, fn, Options{}}, queryProgram{label + " exact", fn, Options{Exact: true}})
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
		progs = append(progs, queryProgram{filepath.Base(f), ir.MustBuild(string(src), ir.BuildOptions{Procs: 4}), Options{}})
	}
	if !testing.Short() {
		progs = append(progs, queryProgram{"acc2048", tierProgram(t, "acc2048"), Options{}})
	}
	return progs
}

// orientedQuery analyzes fn under opts and builds step 6's query from the
// result.
func orientedQuery(fn *ir.Fn, opts Options) (*Result, delay.Constraints) {
	res := Analyze(fn, opts)
	_, guards := computeGuards(res, res.D1.SourceMatrix())
	con, _ := res.orientedConstraints(newLockMasks(len(fn.Accesses), guards), opts)
	return res, con
}

// TestQueryClassContract checks the class contract of step 6's query, the
// partition it hands the delay engine as AccessClass and the rows its
// classes share, on queryPrograms. For every access x:
//
//   - DirRows.Row(x) is x's own oriented row, rebuilt bit by bit from its
//     definition: C(x, ·) minus R's column of x, and for a data x minus the
//     data accesses outside x's co-phase row;
//   - that row is column-congruent over AccessClass: it holds all of a
//     class or none of it, which lets the query build one column per class
//     (TestOrientationInRowsTransposeOutRows checks those columns).
//
// Comp must then put every access in the component it has in the
// condensation of those per-access rows.
func TestQueryClassContract(t *testing.T) {
	for _, p := range queryPrograms(t) {
		fn := p.fn
		n := len(fn.Accesses)
		res, con := orientedQuery(fn, p.opts)
		class := con.AccessClass
		rep := make(map[int32]int) // class -> its first member
		for y := n - 1; y >= 0; y-- {
			rep[class[y]] = y
		}
		data := func(x int) bool { return fn.Accesses[x].Kind.IsData() }

		rows := graph.NewBitMatrix(n)
		for x := 0; x < n; x++ {
			want := rows.Row(x)
			for y := 0; y < n; y++ {
				if res.CS.Conflicts(x, y) && !res.R.has(y, x) &&
					(!data(x) || !data(y) || graph.BitGet(res.CoPhase.Row(x), y)) {
					graph.BitSet(want, y)
				}
			}
			if !slices.Equal(con.DirRows.Row(x), want) {
				t.Fatalf("%s: access %d (class %d) shares a row that is not its own oriented row", p.label, x, class[x])
			}
			for y := 0; y < n; y++ {
				if r := rep[class[y]]; graph.BitGet(want, y) != graph.BitGet(want, r) {
					t.Fatalf("%s: row %d holds %d but not %d, both of class %d", p.label, x, min(y, r), max(y, r), class[y])
				}
			}
		}

		// Members are ascending, so a component's first member names it.
		want := graph.CondenseMixed(res.AG.Succ, rows)
		for x := 0; x < n; x++ {
			if g, w := con.Comp.Members[con.Comp.Comp[x]][0], want.Members[want.Comp[x]][0]; g != w {
				t.Fatalf("%s: access %d is in Comp's component of %d, the per-access condensation's of %d", p.label, x, g, w)
			}
		}
		if con.Comp.NComp != want.NComp {
			t.Fatalf("%s: Comp has %d components, the per-access condensation %d", p.label, con.Comp.NComp, want.NComp)
		}
	}
}

// TestOrientationInRowsTransposeOutRows checks the columns step 6's query
// builds beside its rows, on queryPrograms. The delay engine reads them as
// the transposed relation, so access x's in-row must hold y exactly when
// y's out-row holds x, bit by bit over every access.
func TestOrientationInRowsTransposeOutRows(t *testing.T) {
	for _, p := range queryPrograms(t) {
		n := len(p.fn.Accesses)
		_, con := orientedQuery(p.fn, p.opts)
		out := con.DirRows.(*graph.ClassRows)
		if out.ClassCol == nil {
			t.Fatalf("%s: the orientation rows carry no columns", p.label)
		}
		in := &graph.ClassRows{ClassOf: out.ClassOf, ClassRow: out.ClassCol}
		want := make([]uint64, graph.WordsFor(n))
		for x := 0; x < n; x++ {
			clear(want)
			for y := 0; y < n; y++ {
				if graph.BitGet(out.Row(y), x) {
					graph.BitSet(want, y)
				}
			}
			if !slices.Equal(in.Row(x), want) {
				t.Fatalf("%s: access %d's in-row is not the transpose of the out-rows", p.label, x)
			}
		}
	}
}
