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
// values, testdata/*.ms, edgePrograms and, outside -short, acc2048. The
// kernels under Exact are what needs the co-phase term of accessClasses'
// key: without it, Health shares rows that are not its accesses' own.
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
	progs = append(progs, edgePrograms()...)
	if !testing.Short() {
		progs = append(progs, queryProgram{"acc2048", tierProgram(t, "acc2048"), Options{}})
	}
	return progs
}

// inRowWitnessSource is a program whose pair (read S2 in the second loop,
// the final write of A0) has one back-path: the write of A0 conflicts with
// the read of A0[4], which reaches the write of S2 y in the first loop's
// next iteration, and y's conflict edge into the read a of S2 closes it.
// The locks put [y, a] in R, not [a, y], so the edge y -> a is usable, and
// not [y, b] either, so y is outside the pair's removal cover: a's in-row
// must hold y. An in-row built from R's column of a instead of its row
// drops y, and the pair with it. Found by a search of 15,000 progen
// programs (seeds 0–2,999 under five option sets) for one on which that
// in-row changes D, four of which did, and reduced by hand.
const inRowWitnessSource = `
shared int S1 = 4;
shared int S2 = 3;
shared int A0[8];
event E0;
lock L0;
func main() {
    local int acc = 0;
    for (local int i0 = 0; i0 < 4; i0 = i0 + 1) {
        S2 = MYPROC;
        acc = acc + A0[4];
    }
    lock(L0);
    acc = acc + S1;
    unlock(L0);
    if (MYPROC == 1) {
        post(E0);
    }
    wait(E0);
    for (local int i4 = 0; i4 < 3; i4 = i4 + 1) {
        lock(L0);
        acc = acc + S2;
        unlock(L0);
    }
    A0[MYPROC % 8] = acc % 4;
}
`

// mergedRowsSource is a program whose conflict groups each merge distinct
// syntactic keys: the reads of A[1] and A[2] conflict with the writes of
// A[MYPROC] alone, and the post of E1[MYPROC] and the read of B[MYPROC]
// with nothing. The last two, a synchronization and a data access, share
// an R class and a guard set too; under NoBarrier no co-phase class tells
// them apart, so only accessClasses' synchronization bit keeps them in two
// classes.
const mergedRowsSource = `
shared int A[8];
shared int B[8];
event E0;
event E1[8];
func main() {
    A[MYPROC] = MYPROC;
    if (MYPROC == 0) {
        post(E0);
    }
    wait(E0);
    post(E1[MYPROC]);
    local int x = A[1] + A[2] + B[MYPROC];
    A[MYPROC] = x;
}
`

// edgePrograms are hand-written inputs that reach what the seed grids do
// not: the in-row witness above; the 100-barrier chain, whose (R class,
// guard set) keys are too many for the cover memo's table, so every cover
// is built afresh under id -1 and the class solver decides its cells on the
// branch for covers without an id (TestSharedCoversExactAndReadOnly checks
// that the memo declines there and is asked); and the merged rows above,
// with and without the barrier filter.
func edgePrograms() []queryProgram {
	merged := ir.MustBuild(mergedRowsSource, ir.BuildOptions{Procs: 4})
	return []queryProgram{
		{"in-row witness", ir.MustBuild(inRowWitnessSource, ir.BuildOptions{Procs: 4}), Options{}},
		{"barrier chain", ir.MustBuild(barrierChainSource(), ir.BuildOptions{Procs: 4}), Options{}},
		{"merged rows", merged, Options{}},
		{"merged rows, no barrier", merged, Options{NoBarrier: true}},
	}
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
// partition it hands the delay engine as its rows' ClassOf and the rows its
// classes share, on queryPrograms. For every access x:
//
//   - DirRows.Row(x) is x's own oriented row, rebuilt bit by bit from its
//     definition: C(x, ·) minus R's column of x, and for a data x minus the
//     data accesses outside x's co-phase row (if the barrier filter is on);
//   - that row is column-congruent over the classing: it holds all of a
//     class or none of it, which lets the query build one column per class
//     (TestOrientationInRowsTransposeOutRows checks those columns);
//   - x's class holds only synchronization accesses or only data ones, as
//     the query's endpoint filter tells them apart.
//
// Comp must then put every access in the component it has in the
// condensation of those per-access rows.
func TestQueryClassContract(t *testing.T) {
	for _, p := range queryPrograms(t) {
		fn := p.fn
		n := len(fn.Accesses)
		res, con := orientedQuery(fn, p.opts)
		class := con.DirRows.ClassOf
		rep := make(map[int32]int) // class -> its first member
		for y := n - 1; y >= 0; y-- {
			rep[class[y]] = y
		}
		data := func(x int) bool { return fn.Accesses[x].Kind.IsData() }
		for x := 0; x < n; x++ {
			if r := rep[class[x]]; data(x) != data(r) {
				t.Fatalf("%s: class %d mixes synchronization and data accesses (%d and %d)", p.label, class[x], r, x)
			}
		}

		rows := &graph.ClassRows{ClassOf: make([]int32, n), ClassRow: make([][]uint64, n)}
		for x := 0; x < n; x++ {
			want := make([]uint64, graph.WordsFor(n))
			rows.ClassOf[x], rows.ClassRow[x] = int32(x), want
			for y := 0; y < n; y++ {
				if res.CS.Conflicts(x, y) && !res.R.has(y, x) &&
					(res.CoPhase == nil || !data(x) || !data(y) || graph.BitGet(res.CoPhase.Row(x), y)) {
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
		out := con.DirRows
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
