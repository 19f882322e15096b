package interp

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/sem"
	"repro/internal/source"
)

func checkedInfo(t *testing.T, src string) *sem.Info {
	t.Helper()
	prog, err := source.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func TestMemoryOwnerBlocked(t *testing.T) {
	info := checkedInfo(t, `
shared int A[16];
func main() { }
`)
	m := NewMemory(info, 4)
	sym := info.Lookup("A")
	// Block size ceil(16/4)=4: elements 0-3 on proc 0, 4-7 on 1, ...
	for i := int64(0); i < 16; i++ {
		want := int(i / 4)
		if got := m.Owner(sym, i); got != want {
			t.Errorf("owner(A[%d]) = %d, want %d", i, got, want)
		}
	}
}

func TestMemoryOwnerCyclic(t *testing.T) {
	info := checkedInfo(t, `
shared int A[16] cyclic;
func main() { }
`)
	m := NewMemory(info, 4)
	sym := info.Lookup("A")
	for i := int64(0); i < 16; i++ {
		if got := m.Owner(sym, i); got != int(i%4) {
			t.Errorf("owner(A[%d]) = %d, want %d", i, got, i%4)
		}
	}
}

func TestMemoryOwnerUnevenBlocked(t *testing.T) {
	info := checkedInfo(t, `
shared int A[10];
func main() { }
`)
	m := NewMemory(info, 4)
	sym := info.Lookup("A")
	// ceil(10/4)=3: 0-2 -> 0, 3-5 -> 1, 6-8 -> 2, 9 -> 3.
	wants := []int{0, 0, 0, 1, 1, 1, 2, 2, 2, 3}
	for i, w := range wants {
		if got := m.Owner(sym, int64(i)); got != w {
			t.Errorf("owner(A[%d]) = %d, want %d", i, got, w)
		}
	}
}

func TestMemoryOwnerScalar(t *testing.T) {
	info := checkedInfo(t, `
shared int X on 3;
shared int Y;
func main() { }
`)
	m := NewMemory(info, 4)
	if m.Owner(info.Lookup("X"), 0) != 3 {
		t.Error("X should live on proc 3")
	}
	if m.Owner(info.Lookup("Y"), 0) != 0 {
		t.Error("Y should default to proc 0")
	}
	// Owner wraps when the declared owner exceeds the machine size.
	m2 := NewMemory(info, 2)
	if m2.Owner(info.Lookup("X"), 0) != 1 {
		t.Error("owner should wrap modulo the machine size")
	}
}

func TestMemoryInitialization(t *testing.T) {
	info := checkedInfo(t, `
shared int X = 7;
shared float F = 2.5;
shared float A[4];
func main() { }
`)
	m := NewMemory(info, 2)
	if m.Read(info.Lookup("X"), 0).I != 7 {
		t.Error("X init lost")
	}
	if m.Read(info.Lookup("F"), 0).F != 2.5 {
		t.Error("F init lost")
	}
	if v := m.Read(info.Lookup("A"), 3); v.Float() != 0 {
		t.Error("array should zero-initialize")
	}
}

func TestMemoryCheckIndex(t *testing.T) {
	info := checkedInfo(t, `
shared int A[4];
func main() { }
`)
	m := NewMemory(info, 2)
	sym := info.Lookup("A")
	if err := m.CheckIndex(sym, 3); err != nil {
		t.Errorf("index 3 should be fine: %v", err)
	}
	if err := m.CheckIndex(sym, 4); err == nil {
		t.Error("index 4 should fail")
	}
	if err := m.CheckIndex(sym, -1); err == nil {
		t.Error("negative index should fail")
	}
}

func TestFormatSnapshotDeterministic(t *testing.T) {
	info := checkedInfo(t, `
shared int B;
shared int A[2];
shared float C;
func main() { }
`)
	m := NewMemory(info, 2)
	m.Write(info.Lookup("A"), 1, ir.IntVal(5))
	m.Write(info.Lookup("C"), 0, ir.FloatVal(1.25))
	s1 := FormatSnapshot(m.Snapshot())
	s2 := FormatSnapshot(m.Snapshot())
	if s1 != s2 {
		t.Error("snapshot formatting must be deterministic")
	}
	// Names appear sorted.
	ia := strings.Index(s1, "A=")
	ib := strings.Index(s1, "B=")
	ic := strings.Index(s1, "C=")
	if !(ia < ib && ib < ic) {
		t.Errorf("names not sorted: %s", s1)
	}
	if !strings.Contains(s1, "A=[0 5]") || !strings.Contains(s1, "C=[1.25]") {
		t.Errorf("values wrong: %s", s1)
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	info := checkedInfo(t, `
shared int X = 1;
func main() { }
`)
	m := NewMemory(info, 2)
	snap := m.Snapshot()
	m.Write(info.Lookup("X"), 0, ir.IntVal(99))
	if snap["X"][0].I != 1 {
		t.Error("snapshot must not alias live memory")
	}
}

func TestEvalErrors(t *testing.T) {
	fn := ir.MustBuild(`
func main() {
    local int a[4];
    local int i = 10;
    a[i] = 1;
}
`, ir.BuildOptions{Procs: 1})
	if _, err := RunSC(fn, 1, 1); err == nil {
		t.Error("local array overflow should fail")
	}
}

func TestEvalBuiltinsAtRuntime(t *testing.T) {
	fn := ir.MustBuild(`
shared float R[4];
func main() {
    R[0] = fsqrt(16.0);
    R[1] = fabs(0.0 - 2.5);
    R[2] = itof(imin(7, 3));
    R[3] = itof(ftoi(3.9));
}
`, ir.BuildOptions{Procs: 1})
	res, err := RunSC(fn, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{4, 2.5, 3, 3}
	for i, w := range want {
		if got := res.Memory["R"][i].Float(); got != w {
			t.Errorf("R[%d] = %g, want %g", i, got, w)
		}
	}
}

func TestEvalNegativeSqrtFails(t *testing.T) {
	fn := ir.MustBuild(`
func main() {
    local float x = fsqrt(0.0 - 1.0);
}
`, ir.BuildOptions{Procs: 1})
	if _, err := RunSC(fn, 1, 1); err == nil {
		t.Error("sqrt of a negative should fail")
	}
}

// Read returns the value of sym[idx].
func (m *Memory) Read(sym *sem.Symbol, idx int64) ir.Value { return m.data[sym.ID][idx] }

// Write stores v into sym[idx].
func (m *Memory) Write(sym *sem.Symbol, idx int64, v ir.Value) { m.data[sym.ID][idx] = v }

// Owner returns the processor owning sym[idx]: the declared owner for
// scalars, the block owner for blocked arrays, idx mod P for cyclic ones.
func (m *Memory) Owner(sym *sem.Symbol, idx int64) int {
	return m.OwnerID(sym.ID, idx)
}

// OwnerID is Owner keyed by the symbol's dense ID, read from the
// per-symbol rule tables rather than an access's accInfo.
func (m *Memory) OwnerID(symID int, idx int64) int {
	return m.ownerBy(m.ownKind[symID], m.ownParam[symID], idx)
}
