package graph

// RowInterner hands out dense ids for bitset rows: equal rows (same length,
// same words) get the same id, and ids are assigned in first-seen order,
// starting at 0 — callers number classes by them, so the order is part of
// the contract. Rows are hashed FNV-style into buckets and compared
// exactly, so a hash collision costs a compare, never a wrong id. The zero
// value is ready to use.
type RowInterner struct {
	buckets map[uint64][]int32
	rows    [][]uint64
}

// Intern returns row's id and whether this is the first time the row was
// seen. A fresh row is copied, so the caller may reuse its buffer.
func (t *RowInterner) Intern(row []uint64) (id int32, fresh bool) {
	h := uint64(1469598103934665603)
	for _, w := range row {
		h ^= w
		h *= 1099511628211
	}
	for _, seen := range t.buckets[h] {
		if rowsEqual(t.rows[seen], row) {
			return seen, false
		}
	}
	if t.buckets == nil {
		t.buckets = make(map[uint64][]int32)
	}
	id = int32(len(t.rows))
	t.buckets[h] = append(t.buckets[h], id)
	t.rows = append(t.rows, append([]uint64(nil), row...))
	return id, true
}

// Row returns the interned copy of row id; callers must not modify it.
func (t *RowInterner) Row(id int32) []uint64 { return t.rows[id] }

func rowsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, w := range a {
		if w != b[i] {
			return false
		}
	}
	return true
}
