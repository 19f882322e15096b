package vm_test

// The VM's own tests. Everywhere else the machine runs under the simulator
// (internal/interp implements vm.Host and the engine differential suite
// holds the VM to the AST walker); here it runs against a stub host that
// only records what the bytecode asks of it, so a failure points at the
// compiler or the dispatch loop and nowhere else.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	splitc "repro"
	"repro/internal/apps"
	"repro/internal/ir"
	"repro/internal/vm"
)

// TestDisasmGolden pins the bytecode of two kernels on 4 processors at the
// one-way level: block layout, operand pools, superinstruction fusion and
// the source positions on access ops. EM3D is the stencil shapes; Cholesky
// is the pull loop that dominates a simulate-apps lap (four gets, then four
// sync_ctrs, per iteration). To regenerate after a deliberate change to the
// compiler or the code generator, write the "got" text of the failure to
// the golden file.
func TestDisasmGolden(t *testing.T) {
	for _, c := range []struct{ kernel, golden string }{
		{"EM3D", "em3d_p4_oneway.disasm"},
		{"Cholesky", "cholesky_p4_oneway.disasm"},
	} {
		prog := splitc.MustCompile(apps.ByName(c.kernel).Source(4, 1), splitc.Options{Procs: 4, Level: splitc.LevelOneWay})
		bc, err := vm.Compile(prog.Target)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", c.golden)
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := bc.Disasm(); got != string(want) {
			t.Errorf("%s bytecode drifted from %s\n--- got ---\n%s--- want ---\n%s", c.kernel, path, got, want)
		}
	}
}

// stubSrc has every kind of host traffic: acknowledged puts in a loop, a
// barrier, a get whose value feeds a one-way store, and a print. It
// compiles to each fused statement and terminator: the loop test to br.lc,
// the increment to inc.jump, the buf stores to setelem.ll and bin2.lcl +
// setelem.x, the get to get.tc, and the buf read after the loop to
// bin2.lcc.
const stubSrc = `
shared int A[4];
shared int S[2];
func main() {
	local int i = 0;
	local int v = 0;
	local int buf[4];
	while (i < 2) {
		A[MYPROC * 2 + i] = MYPROC * 10 + i;
		buf[i] = v;
		buf[i * 2 + v] = i;
		i = i + 1;
	}
	barrier;
	v = A[(MYPROC * 2 + 2) % 4];
	S[MYPROC] = v + buf[i * 2 - 2];
	print("got", v);
}
`

// stubHost is a vm.Host with an immediate memory: gets land at once, puts
// and stores apply at once, counters never wait (or, with yieldCtr, wait
// by yielding once, finished before the next Resume as the simulator
// does). A barrier yields on its first call and passes on the second, the
// simulator's two-phase protocol. Every callback is logged, and the ALU
// charges a call carries are logged ahead of it.
type stubHost struct {
	fn       *ir.Fn
	frames   [][]ir.Value   // per processor: the scalars its frame is bound to
	arrays   [][][]ir.Value // per processor: its local arrays, by local ID
	mem      map[string]ir.Value
	arrived  map[int]bool // processors that have yielded at the barrier
	yieldCtr bool
	log      []string
	alu      []int // per processor: ALU charges applied
	failed   string
}

func (h *stubHost) logf(format string, args ...any) {
	h.log = append(h.log, fmt.Sprintf(format, args...))
}

func (h *stubHost) cell(acc int, idx int64) string {
	return fmt.Sprintf("%s[%d]", h.fn.Accesses[acc].Sym.Name, idx)
}

func (h *stubHost) ChargeALUN(p, n int) {
	h.alu[p] += n
	h.logf("p%d alu %d", p, n)
}

// carried applies the ALU charges a host call carries.
func (h *stubHost) carried(p, alu int) {
	if alu != 0 {
		h.ChargeALUN(p, alu)
	}
}

func (h *stubHost) EnterBlock(p, blk int)    { h.logf("p%d enter b%d", p, blk) }
func (h *stubHost) Print(p int, line string) { h.logf("p%d print %q", p, line) }
func (h *stubHost) Fail(p int, format string, args ...any) {
	h.failed = fmt.Sprintf(format, args...)
	h.logf("p%d fail %s", p, h.failed)
}

func (h *stubHost) Get(p, alu, acc int, idx int64, dst ir.LocalID, ctr int) bool {
	h.carried(p, alu)
	h.logf("p%d get %s -> %s c%d", p, h.cell(acc, idx), h.fn.Locals[dst].Name, ctr)
	h.frames[p][dst] = h.mem[h.cell(acc, idx)]
	return true
}

func (h *stubHost) Put(p, alu, acc int, idx int64, v ir.Value, ctr int) bool {
	h.carried(p, alu)
	h.logf("p%d put %s = %s c%d", p, h.cell(acc, idx), v, ctr)
	h.mem[h.cell(acc, idx)] = v
	return true
}

func (h *stubHost) Store(p, alu, acc int, idx int64, v ir.Value) bool {
	h.carried(p, alu)
	h.logf("p%d store %s = %s", p, h.cell(acc, idx), v)
	h.mem[h.cell(acc, idx)] = v
	return true
}

func (h *stubHost) SyncCtr(p, alu, ctr int) bool {
	h.carried(p, alu)
	h.logf("p%d sync_ctr c%d", p, ctr)
	return !h.yieldCtr
}

func (h *stubHost) Sync(p, alu, acc int, idx int64) bool {
	h.carried(p, alu)
	if !h.arrived[p] {
		h.arrived[p] = true
		h.logf("p%d %s: yield", p, h.fn.Accesses[acc].Kind)
		return false
	}
	h.logf("p%d %s: pass", p, h.fn.Accesses[acc].Kind)
	return true
}

// stubProgram compiles stubSrc for 2 processors at the one-way level and
// checks that each fused op the tests rely on is in it.
func stubProgram(tb testing.TB) (*splitc.Program, *vm.Program) {
	tb.Helper()
	prog, err := splitc.Compile(stubSrc, splitc.Options{Procs: 2, Level: splitc.LevelOneWay})
	if err != nil {
		tb.Fatal(err)
	}
	bc, err := vm.Compile(prog.Target)
	if err != nil {
		tb.Fatal(err)
	}
	dis := bc.Disasm()
	for _, op := range []string{"br.lc", "inc.jump", "setelem.ll", "setelem.x", "bin2.lcl", "bin2.lcc", "get.tc"} {
		if !strings.Contains(dis, "  "+op+" ") {
			tb.Fatalf("the stub program has no %s op:\n%s", op, dis)
		}
	}
	return prog, bc
}

// newStub returns a host for fn on procs processors and binds a machine's
// frames to its storage.
func newStub(fn *ir.Fn, procs int) *stubHost {
	h := &stubHost{fn: fn, frames: make([][]ir.Value, procs), arrays: make([][][]ir.Value, procs), alu: make([]int, procs)}
	for p := range h.frames {
		h.frames[p] = make([]ir.Value, len(fn.Locals))
		h.arrays[p] = make([][]ir.Value, len(fn.Locals))
		for _, l := range fn.Locals {
			if l.IsArr {
				h.arrays[p][l.ID] = make([]ir.Value, l.Size)
			}
		}
	}
	h.clear()
	return h
}

// clear returns the host to its initial state: zeroed locals and memory,
// nobody at the barrier, an empty log.
func (h *stubHost) clear() {
	for p, fr := range h.frames {
		for i := range fr {
			fr[i] = ir.IntVal(0)
		}
		for _, arr := range h.arrays[p] {
			for i := range arr {
				arr[i] = ir.IntVal(0)
			}
		}
	}
	h.mem = map[string]ir.Value{}
	h.arrived = map[int]bool{}
	h.log, h.failed = nil, ""
	for p := range h.alu {
		h.alu[p] = 0
	}
}

func bind(m *vm.Machine, h *stubHost) {
	for p, fr := range h.frames {
		m.SetFrame(p, fr, h.arrays[p])
	}
}

// runAll resumes the processors round-robin until every one has returned.
func runAll(t testing.TB, m *vm.Machine, h *stubHost) {
	t.Helper()
	for round := 0; ; round++ {
		if round > 10 {
			t.Fatalf("machine did not finish in 10 rounds\n%s", strings.Join(h.log, "\n"))
		}
		done := true
		for p := range h.frames {
			m.Resume(p)
			if h.failed != "" {
				t.Fatalf("host.Fail: %s", h.failed)
			}
			done = done && m.Done(p)
		}
		if done {
			return
		}
	}
}

// TestResumeAgainstStubHost pins what the bytecode asks of its host, in
// order, for processor 1 of the stub program (processor 0's log is the
// same with its own numbers): ALU charges flushed exactly where the host
// reads the clock, block entries in control-flow order, the loop's two
// puts, the barrier's yield and re-entry, the get feeding the store.
func TestResumeAgainstStubHost(t *testing.T) {
	prog, bc := stubProgram(t)
	h := newStub(prog.Fn, 2)
	m := vm.NewMachine(bc, h, 2)
	bind(m, h)
	m.SetTrace(true)
	runAll(t, m, h)

	var p1 []string
	for _, line := range h.log {
		if rest, ok := strings.CutPrefix(line, "p1 "); ok {
			p1 = append(p1, rest)
		}
	}
	want := []string{
		// i = 0; v = 0; then the loop header.
		"alu 2", "enter b1",
		"alu 1", "enter b2", // i < 2
		// The put stays acknowledged (its sync is inside the loop): wait for
		// the previous iteration's, issue, then the two buf stores and
		// i = i + 1.
		"sync_ctr c0", "put A[2] = 10 c0", "alu 3", "enter b1",
		"alu 1", "enter b2",
		"sync_ctr c0", "put A[3] = 11 c0", "alu 3", "enter b1",
		"alu 1", "enter b3", // the exit test
		"sync_ctr c0", "barrier: yield", "barrier: pass",
		"get A[0] -> v.1 c1", "sync_ctr c1",
		"store S[1] = 1", // its sync fell off the program's end: a one-way store
		`print "[p1] got 0"`, "alu 1",
	}
	if !reflect.DeepEqual(p1, want) {
		t.Errorf("processor 1's host traffic:\n  %s\nwant:\n  %s\nbytecode:\n%s",
			strings.Join(p1, "\n  "), strings.Join(want, "\n  "), bc.Disasm())
	}
	// Both processors made the same twelve charges: two initializations,
	// three loop tests, four buf stores, two increments, one print.
	if h.alu[0] != 12 || h.alu[1] != 12 {
		t.Errorf("ALU charges %v, want 12 on each processor", h.alu)
	}
	// Processor 0 passed the barrier after processor 1's loop, so its read
	// of A[2] saw processor 1's 10.
	if got, want := h.mem["S[0]"], ir.IntVal(11); got != want {
		t.Errorf("S[0] = %s, want %s", got, want)
	}
	if blk, stmt := m.Where(0); blk != 3 {
		t.Errorf("processor 0 stopped in block %d stmt %d, want the exit block b3", blk, stmt)
	}
}

// TestUntracedChargesMatchTraced: with block tracing off the machine
// defers ALU flushes across block boundaries; the host must still see
// every charge, and see it before the call that reads the clock.
func TestUntracedChargesMatchTraced(t *testing.T) {
	prog, bc := stubProgram(t)
	var alu [2][]int
	var calls [2][]string
	for i, trace := range []bool{true, false} {
		h := newStub(prog.Fn, 2)
		m := vm.NewMachine(bc, h, 2)
		bind(m, h)
		m.SetTrace(trace)
		runAll(t, m, h)
		alu[i] = h.alu
		for _, line := range h.log {
			if !strings.Contains(line, " alu ") && !strings.Contains(line, " enter ") {
				calls[i] = append(calls[i], line)
			}
		}
	}
	if !reflect.DeepEqual(alu[0], alu[1]) {
		t.Errorf("ALU charges traced %v, untraced %v", alu[0], alu[1])
	}
	if !reflect.DeepEqual(calls[0], calls[1]) {
		t.Errorf("host calls differ with tracing off:\ntraced:   %v\nuntraced: %v", calls[0], calls[1])
	}
}

// TestYieldedSyncCtrIsNotRedispatched: a sync_ctr that yields is finished
// by the host before the processor's next Resume, which starts after it.
// So a machine whose every counter wait yields asks its host for each wait
// once and dispatches exactly the ops of one whose counters never wait; a
// re-dispatch would show as one more call and one more op per yield.
func TestYieldedSyncCtrIsNotRedispatched(t *testing.T) {
	prog, bc := stubProgram(t)
	var ops [2]int
	var waits [2][2]int // per mode, per processor: SyncCtr calls
	for i, yield := range []bool{false, true} {
		h := newStub(prog.Fn, 2)
		h.yieldCtr = yield
		m := vm.NewMachine(bc, h, 2)
		bind(m, h)
		runAll(t, m, h)
		ops[i] = m.Dispatched()
		for _, line := range h.log {
			if p, _, ok := strings.Cut(line, " sync_ctr "); ok {
				waits[i][p[1]-'0']++
			}
		}
	}
	if waits[0] != [2]int{4, 4} || waits[1] != waits[0] {
		t.Errorf("SyncCtr calls per processor: %v when counters never wait, %v when every wait yields; want [4 4] both",
			waits[0], waits[1])
	}
	if ops[1] != ops[0] {
		t.Errorf("%d ops dispatched when every wait yields, %d when none does", ops[1], ops[0])
	}
}

// TestResetThenRerunMatchesFreshMachine: Reset rewinds the frames — a
// machine that has run to completion, or was abandoned at the barrier
// with a saved sync index, reruns exactly as a new machine runs.
func TestResetThenRerunMatchesFreshMachine(t *testing.T) {
	prog, bc := stubProgram(t)
	fresh := func() []string {
		h := newStub(prog.Fn, 2)
		m := vm.NewMachine(bc, h, 2)
		bind(m, h)
		m.SetTrace(true)
		runAll(t, m, h)
		return h.log
	}()

	h := newStub(prog.Fn, 2)
	m := vm.NewMachine(bc, h, 2)
	bind(m, h)
	m.SetTrace(true)
	runAll(t, m, h)
	if !m.Done(0) || !m.Done(1) {
		t.Fatal("first run did not finish")
	}
	// Second run: abandoned with processor 0 parked at the barrier.
	m.Reset()
	h.clear()
	m.Resume(0)
	if m.Done(0) {
		t.Fatal("processor 0 ran through the barrier")
	}
	// Third run, to completion.
	m.Reset()
	h.clear()
	if m.Done(0) || m.Done(1) {
		t.Fatal("Reset left a processor done")
	}
	runAll(t, m, h)
	if !reflect.DeepEqual(h.log, fresh) {
		t.Errorf("rerun after Reset differs from a fresh machine:\nrerun: %v\nfresh: %v", h.log, fresh)
	}
}

// BenchmarkVMResume times the dispatch loop alone: the stub program's
// loop bound raised (its indices wrapped to stay in range) so that block
// execution dominates, on a host whose callbacks do nothing.
func BenchmarkVMResume(b *testing.B) {
	src := strings.NewReplacer(
		"while (i < 2)", "while (i < 2000)",
		"A[MYPROC * 2 + i]", "A[(MYPROC * 2 + i) % 4]",
		"buf[i]", "buf[i % 4]",
		"buf[i * 2 + v]", "buf[(i * 2 + v) % 4]",
		"buf[i * 2 - 2]", "buf[(i * 2 - 2) % 4]",
	).Replace(stubSrc)
	prog, err := splitc.Compile(src, splitc.Options{Procs: 2, Level: splitc.LevelOneWay})
	if err != nil {
		b.Fatal(err)
	}
	bc, err := vm.Compile(prog.Target)
	if err != nil {
		b.Fatal(err)
	}
	storage := newStub(prog.Fn, 2)
	h := &quietHost{frames: storage.frames}
	m := vm.NewMachine(bc, h, 2)
	bind(m, storage)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		for p, fr := range h.frames {
			for j := range fr {
				fr[j] = ir.IntVal(0)
			}
			for !m.Done(p) {
				m.Resume(p)
			}
		}
	}
}

// quietHost accepts everything and records nothing; a blocking sync
// yields once, so Resume's re-entry path is in the loop too.
type quietHost struct {
	frames [][]ir.Value
	parked [2]bool
}

func (h *quietHost) ChargeALUN(p, n int)      {}
func (h *quietHost) EnterBlock(p, blk int)    {}
func (h *quietHost) Print(p int, line string) {}
func (h *quietHost) Fail(p int, format string, args ...any) {
	panic(fmt.Sprintf(format, args...))
}
func (h *quietHost) Get(p, alu, acc int, idx int64, dst ir.LocalID, ctr int) bool {
	h.frames[p][dst] = ir.IntVal(idx)
	return true
}
func (h *quietHost) Put(p, alu, acc int, idx int64, v ir.Value, ctr int) bool { return true }
func (h *quietHost) Store(p, alu, acc int, idx int64, v ir.Value) bool        { return true }
func (h *quietHost) SyncCtr(p, alu, ctr int) bool                             { return true }
func (h *quietHost) Sync(p, alu, acc int, idx int64) bool {
	h.parked[p] = !h.parked[p]
	return !h.parked[p]
}
