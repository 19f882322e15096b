package graph

import "math/bits"

// ClassRows is an n x n bit relation condensed by an equivalence
// partition: every member of a class shares one physical row. The
// partitions that produce it (conflict groups, R-equivalence classes,
// co-phase regions, the components of a reachability closure) fix a row
// by the class alone. A builder whose partition also fixes the columns
// (bit j of every row depends only on ClassOf[j]) may store them beside
// the rows, one per class, as ClassCol; nothing here derives them.
type ClassRows struct {
	ClassOf  []int32    // access -> class id
	ClassRow [][]uint64 // class id -> shared n-bit row
	ClassCol [][]uint64 // class id -> shared n-bit column, or nil
}

// NewClassRows wraps a partition and its per-class rows. rows[c] must
// have WordsFor(n) words.
func NewClassRows(classOf []int32, rows [][]uint64) *ClassRows {
	return &ClassRows{ClassOf: classOf, ClassRow: rows}
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
