package syncanal

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/delay"
	"repro/internal/graph"
	"repro/internal/ir"
)

// freshCover is the removal cover of (a, b) built from its definition, with
// the shared-lock arm read off Result.Guards: R's row of a | its column of b | the
// accesses guarded by a lock that guards both a and b.
func freshCover(res *Result, byLock map[string][]uint64, a, b int) []uint64 {
	ra, rb := res.R.rowOf(a), res.R.colOf(b)
	row := make([]uint64, len(ra))
	for i := range row {
		row[i] = ra[i] | rb[i]
	}
	for l := range res.Guards[a] {
		if res.Guards[b][l] {
			orRow(row, byLock[l])
		}
	}
	return row
}

// barrierChainSource runs 100 barrier phases in straight-line code: every
// barrier is an R class of its own, so there are too many (R class, guard
// set) key pairs for the memo's table and it builds each cover afresh.
func barrierChainSource() string {
	var sb strings.Builder
	sb.WriteString("shared int X[8];\nfunc main() {\n")
	for i := 1; i <= 100; i++ {
		fmt.Fprintf(&sb, "    X[MYPROC] = X[(MYPROC + %d) %% PROCS] + 1;\n    barrier;\n", i)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// TestSharedCoversExactAndReadOnly runs the oriented pass with its cover
// memo watched, at delay.Workers 1 and 3, on the differential programs
// (acc2048 among them outside -short) and on a 100-barrier chain the memo
// declines. Every pair the engine asks about must get the row its
// definition gives, the pass must produce the D that Analyze did, and after
// the pass every memo row must still equal a fresh build: the engine only
// reads the rows it shares. Pairs with one cover id must get one row, and a
// declined memo numbers no cover. Under -race the same run checks that no worker
// writes a row another reads. It also pins how many distinct covers the
// memo builds at acc2048 and, under PSC_SCALE_TIERS=1, acc8192.
func TestSharedCoversExactAndReadOnly(t *testing.T) {
	defer func(w int) { delay.Workers = w }(delay.Workers)
	pins := map[string]int{"acc2048": 206, "acc8192": 216}
	progs := append(diffPrograms(t), diffProgram{"barrier chain",
		ir.MustBuild(barrierChainSource(), ir.BuildOptions{Procs: 4})})
	if os.Getenv("PSC_SCALE_TIERS") != "" {
		progs = append(progs, diffProgram{"acc8192", tierProgram(t, "acc8192")})
	}
	for _, p := range progs {
		for _, nw := range []int{1, 3} {
			delay.Workers = nw
			label := fmt.Sprintf("%s workers=%d", p.label, nw)
			res := Analyze(p.fn, Options{})
			n := len(p.fn.Accesses)
			_, guards := computeGuards(res, res.D1.SourceMatrix())
			con, memo := res.orientedConstraints(newLockMasks(n, guards), Options{}, syncIDs(p.fn))
			var mu sync.Mutex
			asked := make(map[[2]int32]bool)
			con.RemovedCover = func(a, b int, scratch []uint64) ([]uint64, int) {
				mu.Lock()
				asked[[2]int32{int32(a), int32(b)}] = true
				mu.Unlock()
				return memo.cover(a, b, scratch)
			}
			identicalSets(t, label+" D", res.D1.Union(delay.Compute(res.AG, res.CS, con)), res.D)

			byLock := make(map[string][]uint64)
			for x, ls := range res.Guards {
				for l := range ls {
					if byLock[l] == nil {
						byLock[l] = make([]uint64, graph.WordsFor(n))
					}
					graph.BitSet(byLock[l], x)
				}
			}
			scratch := make([]uint64, graph.WordsFor(n))
			rowOf := make(map[int][]uint64)
			for ab := range asked {
				a, b := int(ab[0]), int(ab[1])
				got, id := memo.cover(a, b, scratch)
				if !slices.Equal(got, freshCover(res, byLock, a, b)) {
					t.Fatalf("%s: cover of (%d, %d) differs from its definition", label, a, b)
				}
				if (id >= 0) != (memo.key != nil) {
					t.Fatalf("%s: cover of (%d, %d) has id %d with the memo table built %v", label, a, b, id, memo.key != nil)
				}
				if r, ok := rowOf[id]; ok && id >= 0 && !slices.Equal(r, got) {
					t.Fatalf("%s: two pairs with cover id %d get different rows", label, id)
				}
				rowOf[id] = got
			}
			if p.label == "barrier chain" && (memo.key != nil || len(asked) == 0) {
				t.Fatalf("%s: %d pairs asked, memo table built %v; want pairs asked of a declined memo", label, len(asked), memo.key != nil)
			}
			if want, pinned := pins[p.label]; pinned && memo.built() != want {
				t.Fatalf("%s: the memo built %d covers, pinned %d", label, memo.built(), want)
			}
		}
	}
}

// built reports how many distinct covers the memo has built.
func (m *coverMemo) built() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.rows)
}
