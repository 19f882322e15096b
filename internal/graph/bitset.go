package graph

import "math/bits"

// WordsFor returns the number of 64-bit words needed for n bits.
func WordsFor(n int) int { return (n + 63) / 64 }

// BitMatrix is a dense n x n bit relation stored as n rows of w words.
// Row operations are word-parallel: one OR or AND covers 64 columns.
type BitMatrix struct {
	N int // rows (and columns)
	W int // words per row
	b []uint64
}

// NewBitMatrix returns an empty n x n matrix.
func NewBitMatrix(n int) *BitMatrix {
	w := WordsFor(n)
	return &BitMatrix{N: n, W: w, b: make([]uint64, n*w)}
}

// Row returns row i as a shared word slice; callers must not grow it.
func (m *BitMatrix) Row(i int) []uint64 { return m.b[i*m.W : (i+1)*m.W] }

// Words returns the whole backing word slice (rows concatenated), for
// word-parallel whole-matrix operations like unions.
func (m *BitMatrix) Words() []uint64 { return m.b }

// Set sets bit (i, j).
func (m *BitMatrix) Set(i, j int) { m.b[i*m.W+j>>6] |= 1 << (uint(j) & 63) }

// Has reports bit (i, j).
func (m *BitMatrix) Has(i, j int) bool {
	return m.b[i*m.W+j>>6]&(1<<(uint(j)&63)) != 0
}

// Count returns the number of set bits in the whole matrix.
func (m *BitMatrix) Count() int {
	c := 0
	for _, w := range m.b {
		c += bits.OnesCount64(w)
	}
	return c
}

// BitGet reports bit j of a word-slice row.
func BitGet(row []uint64, j int) bool {
	return row[j>>6]&(1<<(uint(j)&63)) != 0
}

// BitSet sets bit j of a word-slice row.
func BitSet(row []uint64, j int) { row[j>>6] |= 1 << (uint(j) & 63) }

// BitClear clears bit j of the row.
func BitClear(row []uint64, j int) { row[j>>6] &^= 1 << (uint(j) & 63) }

// AndAny reports whether two rows share a set bit.
func AndAny(a, b []uint64) bool {
	for i, w := range a {
		if w&b[i] != 0 {
			return true
		}
	}
	return false
}
