package syncanal

import (
	"math/bits"

	"repro/internal/graph"
)

// This file implements the precedence relation R, stored class-condensed.
// The relation the paper's step 4 computes is highly
// class-structured: accesses in the same phase of the same statement end up
// with identical R rows, because every rule that grows R — the post->wait
// seed rectangles, the dominator derivation (at most one rectangle per
// class and round, precedence.go), and transitive closure — adds
// *rectangles* over sets of accesses, never individual edges.
//
// Precedence is the relation R: has(a, b) means access a is guaranteed to
// complete before access b is initiated, in every execution, whenever the
// two dynamic instances are "aligned" by the synchronization structure. It
// stores R as a partition of the accesses into R-equivalence classes plus
// one bitset row per class over CLASS ids:
//
//	R(a, b)  <=>  crel(classOf[a], classOf[b])
//
// The partition starts as one universal class and is refined on demand:
// addRect(A, B) first splits every class that straddles A or B (so both
// sets become unions of classes), then sets the class-level rectangle.
// Splitting copies the split class's row and column, so the congruence
// invariant — membership in R depends only on the two classes — holds
// after every operation, including the diagonal (a class with a self-edge
// keeps it on both halves, which is what forces barrier accesses, seeded
// with a reflexive edge, into singleton classes).
//
// Transitive closure commutes with the blow-up: an access-level R-path
// alternates between classes along class edges, and conversely a class
// path C0 -> ... -> Ck lifts to an access path through any member choice
// (classes are never empty), so closing crel and expanding equals
// expanding and closing. The closure therefore runs on c x c rows instead
// of n x n — the O(n^2 * n/64) -> O(c^2 * c/64) drop the scaling tiers
// needed.
type Precedence struct {
	n int // accesses
	w int // words per access bitset

	classOf []int32
	mask    [][]uint64 // class -> member bitset (w words)
	count   []int32    // class -> member count

	rows []([]uint64) // crel rows over class-id bits, WordsFor(cap) words each
	cap  int          // row capacity in class ids
	nc   int          // live class count

	splits int // classes created by splitting (beyond the seed class)

	// scratch
	aStamp  []int32 // per-access membership stamps for splitBySet
	cStamp  []int32 // per-class stamps
	cCnt    []int32 // per-class in-set counts
	epoch   int32
	touched []int32
	bmask   []uint64 // class-bit scratch for addRect
	caBuf   []int32  // class-id scratch for addRect
	cbBuf   []int32

	// expansion caches, rebuilt lazily after mutations
	dirty  bool
	expRow [][]uint64 // class -> expanded successor access row
	expCol [][]uint64 // class -> expanded predecessor access row
	size   int
}

func newClassPrecedence(n int) *Precedence {
	p := &Precedence{
		n: n, w: graph.WordsFor(n), cap: 64,
		classOf: make([]int32, n),
		aStamp:  make([]int32, n),
		dirty:   true, size: -1,
	}
	p.cStamp = make([]int32, p.cap)
	p.cCnt = make([]int32, p.cap)
	p.bmask = make([]uint64, graph.WordsFor(p.cap))
	if n > 0 {
		m := make([]uint64, p.w)
		for i := 0; i < n; i++ {
			graph.BitSet(m, i)
		}
		p.mask = [][]uint64{m}
		p.count = []int32{int32(n)}
		p.rows = [][]uint64{make([]uint64, graph.WordsFor(p.cap))}
		p.nc = 1
	}
	return p
}

func (p *Precedence) wc() int { return graph.WordsFor(p.nc) }

// ensureCap grows the class-id capacity of every row and scratch array.
func (p *Precedence) ensureCap(need int) {
	if need <= p.cap {
		return
	}
	for p.cap < need {
		p.cap *= 2
	}
	wc := graph.WordsFor(p.cap)
	for i, r := range p.rows {
		nr := make([]uint64, wc)
		copy(nr, r)
		p.rows[i] = nr
	}
	grow := func(s []int32) []int32 {
		ns := make([]int32, p.cap)
		copy(ns, s)
		return ns
	}
	p.cStamp, p.cCnt = grow(p.cStamp), grow(p.cCnt)
	p.bmask = make([]uint64, wc)
}

// splitClass moves the members of class c stamped with epoch e into a new
// class and returns its id. The new class inherits c's row and column, so
// the relation is unchanged at the access level.
func (p *Precedence) splitClass(c int32, e int32) int32 {
	p.ensureCap(p.nc + 1)
	nid := int32(p.nc)
	p.nc++
	p.splits++

	nm := make([]uint64, p.w)
	for wi, wd := range p.mask[c] {
		for ; wd != 0; wd &= wd - 1 {
			if a := wi<<6 + bits.TrailingZeros64(wd); p.aStamp[a] == e {
				p.classOf[a] = nid
				graph.BitSet(nm, a)
			}
		}
		p.mask[c][wi] &^= nm[wi]
	}
	p.mask = append(p.mask, nm)
	p.count[c] -= p.cCnt[c]
	p.count = append(p.count, p.cCnt[c])

	// Row copy, then column copy over all live rows (the new row included,
	// which reproduces the diagonal: crel(c, c) implies crel(nid, nid)).
	nr := make([]uint64, graph.WordsFor(p.cap))
	copy(nr, p.rows[c])
	p.rows = append(p.rows, nr)
	ci := int(c)
	for i := 0; i < p.nc; i++ {
		if graph.BitGet(p.rows[i], ci) {
			graph.BitSet(p.rows[i], int(nid))
		}
	}
	return nid
}

// splitBySet refines the partition so S becomes a union of classes.
func (p *Precedence) splitBySet(S []int32) {
	if len(S) == 0 {
		return
	}
	p.epoch++
	e := p.epoch
	p.touched = p.touched[:0]
	for _, a := range S {
		p.aStamp[a] = e
		c := p.classOf[a]
		if p.cStamp[c] != e {
			p.cStamp[c] = e
			p.cCnt[c] = 0
			p.touched = append(p.touched, c)
		}
		p.cCnt[c]++
	}
	for _, c := range p.touched {
		if p.cCnt[c] != p.count[c] {
			p.splitClass(c, e)
		}
	}
}

// classesOf returns the distinct classes of the members of S, which must
// already be a union of classes. The result is appended to dst.
func (p *Precedence) classesOf(S []int32, dst []int32) []int32 {
	p.epoch++
	e := p.epoch
	for _, a := range S {
		c := p.classOf[a]
		if p.cStamp[c] != e {
			p.cStamp[c] = e
			dst = append(dst, c)
		}
	}
	return dst
}

// addRect inserts the rectangle A x B into R, splitting straddling classes
// first; it reports whether any pair was new.
func (p *Precedence) addRect(A, B []int32) bool {
	if len(A) == 0 || len(B) == 0 {
		return false
	}
	p.splitBySet(A)
	p.splitBySet(B)
	ca := p.classesOf(A, p.caBuf[:0])
	cb := p.classesOf(B, p.cbBuf[:0])
	p.caBuf, p.cbBuf = ca, cb
	wc := p.wc()
	bm := p.bmask[:wc]
	for i := range bm {
		bm[i] = 0
	}
	for _, c := range cb {
		graph.BitSet(bm, int(c))
	}
	changed := false
	for _, c := range ca {
		row := p.rows[c]
		for i, word := range bm {
			if nw := word &^ row[i]; nw != 0 {
				row[i] |= nw
				changed = true
			}
		}
	}
	if changed {
		p.dirty = true
		p.size = -1
	}
	return changed
}

// addRectBits is addRect for two access bitsets, except that a rectangle R
// already contains is left alone — addRect splits every class straddling
// either side before it looks at the relation. It reports whether any pair
// was new.
func (p *Precedence) addRectBits(A, B []uint64) bool {
	if p.containsRect(A, B) {
		return false
	}
	return p.addRect(appendBits(nil, A), appendBits(nil, B))
}

// appendBits appends the set bit positions of row to dst, ascending.
func appendBits(dst []int32, row []uint64) []int32 {
	for wi, wd := range row {
		for ; wd != 0; wd &= wd - 1 {
			dst = append(dst, int32(wi<<6+bits.TrailingZeros64(wd)))
		}
	}
	return dst
}

// containsRect reports whether R already holds every pair of A x B, both
// given as access bitsets. The test runs in class coordinates — B's classes
// as one class-bit vector against the row of each distinct class of A — and
// splits nothing.
func (p *Precedence) containsRect(A, B []uint64) bool {
	bm := p.bmask[:p.wc()]
	for i := range bm {
		bm[i] = 0
	}
	for wi, wd := range B {
		for ; wd != 0; wd &= wd - 1 {
			graph.BitSet(bm, int(p.classOf[wi<<6+bits.TrailingZeros64(wd)]))
		}
	}
	p.epoch++
	e := p.epoch
	for wi, wd := range A {
		for ; wd != 0; wd &= wd - 1 {
			c := p.classOf[wi<<6+bits.TrailingZeros64(wd)]
			if p.cStamp[c] == e {
				continue
			}
			p.cStamp[c] = e
			row := p.rows[c]
			for i, word := range bm {
				if word&^row[i] != 0 {
					return false
				}
			}
		}
	}
	return true
}

func (p *Precedence) has(a, b int) bool {
	return graph.BitGet(p.rows[p.classOf[a]], int(p.classOf[b]))
}

// transClose closes crel under transitivity (length >= 1 reachability)
// and reports change. Exactness at the access
// level follows from the congruence invariant: closures commute with the
// blow-up because classes are never empty.
func (p *Precedence) transClose() bool {
	nc := p.nc
	if nc == 0 {
		return false
	}
	wc := p.wc()
	iter := func(u int, visit func(v int32)) {
		for wi, wd := range p.rows[u][:wc] {
			for ; wd != 0; wd &= wd - 1 {
				visit(int32(wi<<6 + bits.TrailingZeros64(wd)))
			}
		}
	}
	closed := graph.Condense(nc, iter).ReachRows(nc, iter)
	changed := false
	for c := 0; c < nc; c++ {
		old, now := p.rows[c][:wc], closed.Row(c)
		for i := range old {
			if now[i] != old[i] {
				changed = true
			}
		}
		copy(old, now)
	}
	if changed {
		p.dirty = true
		p.size = -1
	}
	return changed
}

// coalesce merges classes whose rows AND columns are identical bitsets
// over the current class ids, iterating to a fixpoint (a merge can make
// two further rows equal when they differed only at the merged
// positions). Each merge is exact: equal class-bit sets expand to equal
// access-level rows and columns, and column equality forces every row to
// agree at the two merged positions, so the quotient keeps the congruence
// invariant — including the diagonal. Splitting is how the partition
// refines, but splits never merge back on their own even when closure
// makes the halves indistinguishable again; coalescing at closure points
// is what keeps the class count near the true number of distinct R rows.
func (p *Precedence) coalesce() {
	for p.coalesceOnce() {
	}
}

func (p *Precedence) coalesceOnce() bool {
	nc := p.nc
	if nc <= 1 {
		return false
	}
	wc := p.wc()

	// Column bitsets, by transposing the rows.
	cols := make([][]uint64, nc)
	for c := 0; c < nc; c++ {
		cols[c] = make([]uint64, wc)
	}
	for i := 0; i < nc; i++ {
		for wi, wd := range p.rows[i][:wc] {
			for ; wd != 0; wd &= wd - 1 {
				graph.BitSet(cols[wi<<6+bits.TrailingZeros64(wd)], i)
			}
		}
	}

	// Group classes by (row, column): intern each side, key on the id pair.
	rep := make([]int32, nc)
	var rowIDs, colIDs graph.RowInterner
	first := make(map[[2]int32]int32)
	merged := false
	for c := 0; c < nc; c++ {
		r, _ := rowIDs.Intern(p.rows[c][:wc])
		cl, _ := colIDs.Intern(cols[c])
		k := [2]int32{r, cl}
		if c2, ok := first[k]; ok {
			rep[c] = c2
			merged = true
		} else {
			first[k] = int32(c)
			rep[c] = int32(c)
		}
	}
	if !merged {
		return false
	}

	// Compact renumbering in representative order, then rebuild.
	newID := make([]int32, nc)
	nn := 0
	for c := 0; c < nc; c++ {
		if rep[c] == int32(c) {
			newID[c] = int32(nn)
			nn++
		}
	}
	for c := 0; c < nc; c++ {
		newID[c] = newID[rep[c]]
	}
	mask := make([][]uint64, nn)
	count := make([]int32, nn)
	rows := make([][]uint64, nn)
	rowW := graph.WordsFor(p.cap)
	for c := 0; c < nc; c++ {
		id := newID[c]
		if mask[id] == nil {
			mask[id] = make([]uint64, p.w)
			rows[id] = make([]uint64, rowW)
			for wi, wd := range p.rows[c][:wc] {
				for ; wd != 0; wd &= wd - 1 {
					graph.BitSet(rows[id], int(newID[wi<<6+bits.TrailingZeros64(wd)]))
				}
			}
		}
		orRow(mask[id], p.mask[c])
		count[id] += p.count[c]
	}
	for a := 0; a < p.n; a++ {
		p.classOf[a] = newID[p.classOf[a]]
	}
	p.mask, p.count, p.rows, p.nc = mask, count, rows, nn
	p.dirty = true
	p.size = -1
	return true
}

// expand (re)builds the per-class expanded access rows and columns and the
// exact pair count. Rebuilt lazily: mutations only mark the caches dirty.
func (p *Precedence) expand() {
	if !p.dirty && p.expRow != nil {
		return
	}
	nc := p.nc
	p.expRow = make([][]uint64, nc)
	p.expCol = make([][]uint64, nc)
	for c := 0; c < nc; c++ {
		p.expCol[c] = make([]uint64, p.w)
	}
	p.size = 0
	for c := 0; c < nc; c++ {
		r := make([]uint64, p.w)
		sz := 0
		for wi, wd := range p.rows[c][:p.wc()] {
			for ; wd != 0; wd &= wd - 1 {
				c2 := wi<<6 + bits.TrailingZeros64(wd)
				for i, mw := range p.mask[c2] {
					r[i] |= mw
				}
				col := p.expCol[c2]
				for i, mw := range p.mask[c] {
					col[i] |= mw
				}
				sz += int(p.count[c2])
			}
		}
		p.expRow[c] = r
		p.size += int(p.count[c]) * sz
	}
	p.dirty = false
}

// rowOf returns a's successor row {b : has(a, b)} as a shared bitset;
// callers must not modify it.
func (p *Precedence) rowOf(a int) []uint64 {
	p.expand()
	return p.expRow[p.classOf[a]]
}

// colOf returns b's predecessor row {a : has(a, b)} as a shared bitset;
// callers must not modify it.
func (p *Precedence) colOf(b int) []uint64 {
	p.expand()
	return p.expCol[p.classOf[b]]
}

// Size returns the number of pairs in R.
func (p *Precedence) Size() int {
	p.expand()
	return p.size
}

// accessClasses computes the access classing of step 6's query, the ClassOf
// of its orientation rows (delay.Constraints.DirRows).
// Accesses share a class only when they are interchangeable for the
// engine's constraint hooks — identical oriented conflict rows AND columns,
// identical removal covers as source and target, identical Removed
// behavior — which holds when they agree on:
//
//   - the R-equivalence class (orientation and removal consult R only
//     through the class relation);
//   - the conflict group (the accesses with one conflict row);
//   - synchronization or data: two accesses with empty conflict rows share
//     a group whatever their kinds, and the query's endpoint filter and
//     barrier filter tell them apart;
//   - the guard set (the shared-lock arms of removed/cover);
//   - for a data access, the co-phase class (the barrier filter ANDs its
//     co-phase row into data rows and columns).
//
// Ids are dense and numbered in first-seen access order.
func (res *Result) accessClasses(lk *lockMasks) []int32 {
	type key struct {
		rc, cg, gs, co int32
		sync           bool
	}
	class := make([]int32, len(res.Fn.Accesses))
	ids := make(map[key]int32)
	for x, a := range res.Fn.Accesses {
		k := key{rc: res.R.classOf[x], cg: res.CS.GroupOf(x), gs: lk.set[x], sync: a.Kind.IsSync()}
		if res.CoPhase != nil && a.Kind.IsData() {
			k.co = res.CoPhase.ClassOf[x] + 1
		}
		id, ok := ids[k]
		if !ok {
			id = int32(len(ids))
			ids[k] = id
		}
		class[x] = id
	}
	return class
}
