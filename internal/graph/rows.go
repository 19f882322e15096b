package graph

import "math/bits"

// Rows is a read-only row-indexed bit relation over n ids. A *BitMatrix
// is the per-access (materialized) implementation; ClassRows shares one
// physical row among every member of an equivalence class, so consumers
// that only read rows run condensed without knowing the backing.
type Rows interface {
	// Row returns row i as a shared word slice; callers must not modify it.
	Row(i int) []uint64
}

// TransposeRows transposes either Rows backing. For a ClassRows the
// transpose is again class-shared (see ClassRows.Transpose); for a
// BitMatrix it materializes the per-access transpose.
func TransposeRows(r Rows) Rows {
	switch m := r.(type) {
	case *BitMatrix:
		return m.Transpose()
	case *ClassRows:
		return m.Transpose()
	}
	panic("graph: unknown Rows backing")
}

// ClassRows is an n x n bit relation condensed by an equivalence
// partition: every member of a class shares one physical row. The
// backing assumes the partition is a congruence on both sides — bit j of
// a class row depends only on ClassOf[j] — which is exactly the contract
// of the analysis partitions that produce it (conflict groups,
// R-equivalence classes, co-phase regions, the components of a
// reachability closure). Transpose relies on the
// column half of that contract; Row does not.
type ClassRows struct {
	ClassOf  []int32    // access -> class id
	ClassRow [][]uint64 // class id -> shared n-bit row
	n        int
	rep      []int32    // class id -> first member (built lazily)
	mask     [][]uint64 // class id -> member bitset (built lazily)
}

// NewClassRows wraps a partition and its per-class rows. rows[c] must
// have WordsFor(n) words.
func NewClassRows(classOf []int32, rows [][]uint64, n int) *ClassRows {
	return &ClassRows{ClassOf: classOf, ClassRow: rows, n: n}
}

// Row returns the shared row of i's class.
func (m *ClassRows) Row(i int) []uint64 { return m.ClassRow[m.ClassOf[i]] }

// Count returns the number of set (i, j) pairs, expanded: each class row
// counts once per member.
func (m *ClassRows) Count() int {
	sizes := make([]int, len(m.ClassRow))
	for _, c := range m.ClassOf {
		sizes[c]++
	}
	total := 0
	for c, row := range m.ClassRow {
		if sizes[c] == 0 {
			continue
		}
		pc := 0
		for _, w := range row {
			pc += bits.OnesCount64(w)
		}
		total += pc * sizes[c]
	}
	return total
}

// members builds the lazy per-class representative and member masks.
func (m *ClassRows) members() {
	if m.mask != nil {
		return
	}
	w := WordsFor(m.n)
	m.rep = make([]int32, len(m.ClassRow))
	for c := range m.rep {
		m.rep[c] = -1
	}
	m.mask = make([][]uint64, len(m.ClassRow))
	for i, c := range m.ClassOf {
		if m.mask[c] == nil {
			m.mask[c] = make([]uint64, w)
			m.rep[c] = int32(i)
		}
		BitSet(m.mask[c], i)
	}
}

// Transpose returns the transposed relation over the same partition:
// row j of the result has bit i set iff bit j of row i is set. By the
// column congruence, bit j of ClassRow[c] is constant over j's class, so
// the transposed row of class c is the union of the member masks of
// every class whose row contains c's representative.
func (m *ClassRows) Transpose() *ClassRows {
	m.members()
	w := WordsFor(m.n)
	nc := len(m.ClassRow)
	trows := make([][]uint64, nc)
	for c := 0; c < nc; c++ {
		tr := make([]uint64, w)
		if m.rep[c] >= 0 {
			j := int(m.rep[c])
			for c2 := 0; c2 < nc; c2++ {
				if m.mask[c2] != nil && BitGet(m.ClassRow[c2], j) {
					for wi, wd := range m.mask[c2] {
						tr[wi] |= wd
					}
				}
			}
		}
		trows[c] = tr
	}
	return &ClassRows{ClassOf: m.ClassOf, ClassRow: trows, n: m.n}
}
