package interp_test

import (
	"fmt"
	"testing"
	"unsafe"

	splitc "repro"
	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/vm"
)

// TestQueueTierTrafficApps pins, for every cell of a simulate-apps lap, how
// many event-queue pushes the sorted run takes and how many reach the heap,
// beside the cell's event count. A run is deterministic, so the counts are
// exact on any host: a change to the queue's tier policy, or to the order
// in which the simulator pushes, moves them.
func TestQueueTierTrafficApps(t *testing.T) {
	type cell struct {
		kernel          string
		level           splitc.Level
		procs           int
		run, heap, evts int
	}
	b, p, o := splitc.LevelBaseline, splitc.LevelPipelined, splitc.LevelOneWay
	cells := []cell{
		{"Ocean", b, 64, 25_297, 19_779, 71_748},
		{"Ocean", p, 64, 19_379, 17_785, 63_836},
		{"Ocean", o, 64, 19_499, 17_537, 63_708},
		{"EM3D", b, 64, 5_588, 1_260, 15_040},
		{"EM3D", p, 64, 2_776, 1_512, 12_480},
		{"EM3D", o, 64, 2_775, 1_449, 12_416},
		{"Epithel", b, 64, 54_656, 36_288, 172_864},
		{"Epithel", p, 64, 25_860, 36_412, 144_192},
		{"Epithel", o, 64, 25_855, 36_097, 143_872},
		{"Cholesky", b, 64, 270_848, 3_776, 798_912},
		{"Cholesky", p, 64, 246_784, 27_840, 798_912},
		{"Cholesky", o, 64, 246_784, 27_840, 798_912},
		{"Health", b, 64, 1_896, 248, 3_040},
		{"Health", p, 64, 1_607, 281, 2_784},
		{"Health", o, 64, 1_607, 281, 2_784},
		{"Ocean", o, 256, 78_059, 69_953, 256_092},
		{"EM3D", o, 256, 11_031, 5_865, 49_664},
	}
	var run, heap, evts, msgs int
	for _, c := range cells {
		label := fmt.Sprintf("%s/%s@%d", c.kernel, c.level, c.procs)
		prog := compileAt(t, label, apps.ByName(c.kernel).Source(c.procs, 1), splitc.Options{Procs: c.procs, Level: c.level})
		r, err := interp.NewRunner(prog.Target, machine.CM5(c.procs))
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(interp.RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		gotRun, gotHeap := r.QueueTraffic()
		if gotRun != c.run || gotHeap != c.heap || res.Events != c.evts {
			t.Errorf("%s: run %d / heap %d pushes, %d events; pinned %d / %d, %d",
				label, gotRun, gotHeap, res.Events, c.run, c.heap, c.evts)
		}
		run, heap, evts, msgs = run+gotRun, heap+gotHeap, evts+res.Events, msgs+res.Messages
	}
	// The lap's totals, as the benchmark reports them.
	if run != 1_040_301 || heap != 304_203 || evts != 3_411_256 || msgs != 1_674_912 {
		t.Errorf("lap: run %d / heap %d pushes, %d events, %d messages; want 1040301 / 304203, 3411256, 1674912",
			run, heap, evts, msgs)
	}
}

// TestVMTrafficApps pins, for every cell of a simulate-apps lap, the
// bytecode VM's work: the ops it dispatches and its calls into the
// simulator by vm.Host method, beside the cell's event count. Like the
// queue's pushes these are exact on any host, so a change to the
// compiler's fusion or to the host protocol moves them. It also pins each
// cell's answer, its simulated cycles and network messages: the engine
// differentials run both engines on one simulator, so a clock shift
// inside the simulator passes them and shows here.
func TestVMTrafficApps(t *testing.T) {
	type cell struct {
		kernel  string
		level   splitc.Level
		procs   int
		ops     int
		alu     int
		get     int
		put     int
		store   int
		syncCtr int
		sync    int
		evts    int
		time    float64
		msgs    int
	}
	b, p, o := splitc.LevelBaseline, splitc.LevelPipelined, splitc.LevelOneWay
	cells := []cell{
		{"Ocean", b, 64, 124_188, 64, 13_336, 9_152, 0, 35_412, 896, 71_748, 34_356, 8_064},
		{"Ocean", p, 64, 116_276, 64, 13_336, 9_152, 0, 27_500, 896, 63_836, 16_510, 8_064},
		{"Ocean", o, 64, 116_148, 64, 13_336, 5_120, 4_032, 27_372, 896, 63_708, 13_846, 4_032},
		{"EM3D", b, 64, 32_128, 64, 4_096, 1_536, 0, 4_928, 640, 15_040, 17_216, 4_608},
		{"EM3D", p, 64, 29_568, 64, 4_096, 1_536, 0, 2_368, 640, 12_480, 10_116, 4_608},
		{"EM3D", o, 64, 29_504, 64, 4_096, 1_024, 512, 2_304, 640, 12_416, 10_116, 4_608},
		{"Epithel", b, 64, 443_584, 64, 40_960, 28_672, 0, 61_760, 896, 172_864, 79_388, 16_640},
		{"Epithel", p, 64, 414_912, 64, 40_960, 28_672, 0, 33_088, 896, 144_192, 44_244, 16_640},
		{"Epithel", o, 64, 414_592, 64, 40_960, 8_192, 20_480, 32_768, 896, 143_872, 38_786, 8_576},
		{"Cholesky", b, 64, 2_879_072, 64, 262_144, 4_096, 0, 266_304, 8_256, 798_912, 1_819_174, 520_256},
		{"Cholesky", p, 64, 2_879_072, 64, 262_144, 4_096, 0, 266_304, 8_256, 798_912, 731_686, 520_256},
		{"Cholesky", o, 64, 2_879_072, 64, 262_144, 4_096, 0, 266_304, 8_256, 798_912, 731_686, 520_256},
		{"Health", b, 64, 6_144, 32, 448, 448, 0, 896, 800, 3_040, 6_825, 1_184},
		{"Health", p, 64, 5_888, 32, 448, 448, 0, 640, 800, 2_784, 5_405, 1_184},
		{"Health", o, 64, 5_888, 32, 448, 448, 0, 640, 800, 2_784, 5_405, 1_184},
		{"Ocean", o, 256, 467_316, 256, 54_040, 20_480, 16_320, 109_164, 3_584, 256_092, 13_846, 16_320},
		{"EM3D", o, 256, 118_016, 256, 16_384, 4_096, 2_048, 9_216, 2_560, 49_664, 10_116, 18_432},
	}
	var ops, crossings, evts int
	for _, c := range cells {
		label := fmt.Sprintf("%s/%s@%d", c.kernel, c.level, c.procs)
		prog := compileAt(t, label, apps.ByName(c.kernel).Source(c.procs, 1), splitc.Options{Procs: c.procs, Level: c.level})
		r, err := interp.NewRunner(prog.Target, machine.CM5(c.procs))
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(interp.RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		gotOps, calls := r.VMTraffic()
		want := interp.VMCrossings{ChargeALUN: c.alu, Get: c.get, Put: c.put, Store: c.store, SyncCtr: c.syncCtr, Sync: c.sync}
		if gotOps != c.ops || calls != want || res.Events != c.evts {
			t.Errorf("%s: %d ops, calls %+v, %d events; pinned %d, %+v, %d",
				label, gotOps, calls, res.Events, c.ops, want, c.evts)
		}
		if res.Time != c.time || res.Messages != c.msgs {
			t.Errorf("%s: %v cycles, %d messages; pinned %v, %d", label, res.Time, res.Messages, c.time, c.msgs)
		}
		ops += gotOps
		crossings += calls.ChargeALUN + calls.EnterBlock + calls.Print + calls.Get + calls.Put + calls.Store + calls.SyncCtr + calls.Sync
		evts += res.Events
	}
	// The lap's totals, and the size the fused ops' operands must fit.
	if ops != 10_961_368 || crossings != 2_396_984 || evts != 3_411_256 {
		t.Errorf("lap: %d ops, %d crossings, %d events; want 10961368, 2396984, 3411256", ops, crossings, evts)
	}
	if n := unsafe.Sizeof(vm.Op{}); n != 16 {
		t.Errorf("vm.Op is %d bytes, want 16", n)
	}
}

// hashTap folds the tap callback stream, line by line as traceTap would
// record it, into a 64-bit FNV-1a digest and counts its callbacks: a
// pinned stream without the memory a long recording takes.
type hashTap struct {
	buf []byte
	h   uint64
	n   int
}

func (t *hashTap) line(format string, args ...any) {
	if t.n == 0 {
		t.h = 14695981039346656037
	}
	t.n++
	t.buf = fmt.Appendf(t.buf[:0], format, args...)
	for _, c := range t.buf {
		t.h = (t.h ^ uint64(c)) * 1099511628211
	}
	t.h = (t.h ^ '\n') * 1099511628211
}

func (t *hashTap) Block(proc, blk int) { t.line("block p%d b%d", proc, blk) }

func (t *hashTap) Issue(dyn, proc int, kind interp.OpKind, acc *ir.Access, idx int64, at float64) {
	site := "-"
	if acc != nil {
		site = acc.Site()
	}
	t.line("issue %d p%d %v %s [%d] @%g", dyn, proc, kind, site, idx, at)
}

func (t *hashTap) MemEffect(dyn int, write bool, val ir.Value, at float64) {
	t.line("mem %d write=%v %v @%g", dyn, write, val, at)
}

func (t *hashTap) Observe(dyn, from int) { t.line("observe %d from %d", dyn, from) }

func (t *hashTap) Episode(dyn, ep int) { t.line("episode %d ep %d", dyn, ep) }

// TestTappedRunsApps pins the path the SC verifier takes: every kernel at
// every level on 4 processors, run tapped, jittered and perturbed (every
// get-read queued, every event key drawn from the seeded schedule). Each
// cell's cycles, events and messages, and the length and FNV-1a digest of
// its tap stream, are exact on any host; a change to the simulator's event
// order on that path moves them.
func TestTappedRunsApps(t *testing.T) {
	type cell struct {
		kernel string
		level  splitc.Level
		time   float64
		evts   int
		msgs   int
		taps   int
		digest uint64
	}
	b, p, o := splitc.LevelBaseline, splitc.LevelPipelined, splitc.LevelOneWay
	cells := []cell{
		{"Ocean", b, 36675.450942175376, 3_948, 384, 5_684, 0x34bbe12196e531a3},
		{"Ocean", p, 16_510, 3_596, 384, 5_332, 0xa42ea9605aadd23a},
		{"Ocean", o, 13887.510658662133, 3_588, 192, 5_324, 0x4f82e2910387b07},
		{"EM3D", b, 18486.8612813116, 940, 288, 1_320, 0x375d20f017c99e1a},
		{"EM3D", p, 10875.848962954642, 780, 288, 1_160, 0x60cd7822764e199d},
		{"EM3D", o, 10821.771788388201, 776, 288, 1_156, 0xfa4f4b595dfb185b},
		{"Epithel", b, 280814.6353624533, 43_060, 3_104, 65_624, 0x7e99ce5ac61875ec},
		{"Epithel", p, 160689.85328091122, 35_892, 3_104, 58_456, 0x6462552a190837b6},
		{"Epithel", o, 143670.08514870418, 35_872, 1_568, 58_436, 0x6353061f8658b53f},
		{"Cholesky", b, 9166.620022582536, 252, 116, 718, 0xd78682e95b20a488},
		{"Cholesky", p, 4590.973410867616, 252, 116, 718, 0x11e84edd6b8fb979},
		{"Cholesky", o, 4590.973410867616, 252, 116, 718, 0x11e84edd6b8fb979},
		{"Health", b, 7410.401452818913, 190, 74, 272, 0x2d77072709adf991},
		{"Health", p, 5882.906254446078, 174, 74, 256, 0x57be528bed03d42e},
		{"Health", o, 5882.906254446078, 174, 74, 256, 0x57be528bed03d42e},
	}
	const procs = 4
	for _, c := range cells {
		label := fmt.Sprintf("%s/%s@%d", c.kernel, c.level, procs)
		prog := compileAt(t, label, apps.ByName(c.kernel).Source(procs, 1), splitc.Options{Procs: procs, Level: c.level})
		tap := &hashTap{}
		res, err := interp.Run(prog.Target, machine.CM5(procs), interp.RunOptions{Jitter: 0.3, Seed: 7, Perturb: true, Tap: tap})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res.Time != c.time || res.Events != c.evts || res.Messages != c.msgs || tap.n != c.taps || tap.h != c.digest {
			t.Errorf("%s: %v cycles, %d events, %d messages, tap %d lines %#x; pinned %v, %d, %d, %d, %#x",
				label, res.Time, res.Events, res.Messages, tap.n, tap.h, c.time, c.evts, c.msgs, c.taps, c.digest)
		}
	}
}
