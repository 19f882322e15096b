package graph

import "testing"

// TestRowInterner pins the contract the class numberings rest on: ids are
// dense and in first-seen order, equal content gets the same id whatever
// buffer carries it, length is part of the content, and the stored row is
// a copy the caller's buffer cannot disturb.
func TestRowInterner(t *testing.T) {
	var in RowInterner
	buf := []uint64{5, 0, 9}
	if id, fresh := in.Intern(buf); id != 0 || !fresh {
		t.Fatalf("first row: id %d fresh %v, want 0 true", id, fresh)
	}
	buf[1] = 7
	if id, fresh := in.Intern(buf); id != 1 || !fresh {
		t.Fatalf("second row: id %d fresh %v, want 1 true", id, fresh)
	}
	if id, fresh := in.Intern([]uint64{5, 0, 9}); id != 0 || fresh {
		t.Fatalf("repeat of the first row: id %d fresh %v, want 0 false", id, fresh)
	}
	if id, fresh := in.Intern([]uint64{5, 0}); id != 2 || !fresh {
		t.Fatalf("shorter row: id %d fresh %v, want 2 true", id, fresh)
	}
	if id, fresh := in.Intern(nil); id != 3 || !fresh {
		t.Fatalf("empty row: id %d fresh %v, want 3 true", id, fresh)
	}
	if r := in.Row(0); len(r) != 3 || r[0] != 5 || r[1] != 0 || r[2] != 9 {
		t.Fatalf("Row(0) = %v, want the content at first sight", r)
	}
}
