package graph

// RowInterner hands out dense ids for bitset rows: equal rows (same length,
// same words) get the same id, and ids are assigned in first-seen order,
// starting at 0 — callers number classes by them, so the order is part of
// the contract. Rows are hashed FNV-style into buckets and compared
// exactly, so a hash collision costs a compare, never a wrong id. The
// rows are copied into one slab and the buckets chained through it, so
// interning allocates only as the slab grows. The zero value is ready to
// use.
type RowInterner struct {
	head  map[uint64]int32 // hash -> the last id interned under it
	next  []int32          // id -> the previous id under its hash, or -1
	at    []int            // id -> the start of its row in words; len(at) = ids + 1
	words []uint64
}

// Intern returns row's id and whether this is the first time the row was
// seen. A fresh row is copied, so the caller may reuse its buffer.
func (t *RowInterner) Intern(row []uint64) (id int32, fresh bool) {
	h := uint64(1469598103934665603)
	for _, w := range row {
		h ^= w
		h *= 1099511628211
	}
	prev, ok := t.head[h]
	if !ok {
		prev = -1
	}
	for seen := prev; seen >= 0; seen = t.next[seen] {
		if rowsEqual(t.Row(seen), row) {
			return seen, false
		}
	}
	if t.head == nil {
		t.head = make(map[uint64]int32)
		t.at = append(t.at, 0)
	}
	id = int32(len(t.next))
	t.head[h] = id
	t.next = append(t.next, prev)
	t.words = append(t.words, row...)
	t.at = append(t.at, len(t.words))
	return id, true
}

// Row returns the interned copy of row id; callers must not modify it.
func (t *RowInterner) Row(id int32) []uint64 {
	a, b := t.at[id], t.at[id+1]
	return t.words[a:b:b]
}

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
