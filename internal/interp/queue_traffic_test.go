package interp_test

import (
	"fmt"
	"testing"
	"unsafe"

	splitc "repro"
	"repro/internal/apps"
	"repro/internal/interp"
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
// compiler's fusion or to the host protocol moves them.
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
	}
	b, p, o := splitc.LevelBaseline, splitc.LevelPipelined, splitc.LevelOneWay
	cells := []cell{
		{"Ocean", b, 64, 124_188, 64, 13_336, 9_152, 0, 35_412, 896, 71_748},
		{"Ocean", p, 64, 116_276, 64, 13_336, 9_152, 0, 27_500, 896, 63_836},
		{"Ocean", o, 64, 116_148, 64, 13_336, 5_120, 4_032, 27_372, 896, 63_708},
		{"EM3D", b, 64, 32_128, 64, 4_096, 1_536, 0, 4_928, 640, 15_040},
		{"EM3D", p, 64, 29_568, 64, 4_096, 1_536, 0, 2_368, 640, 12_480},
		{"EM3D", o, 64, 29_504, 64, 4_096, 1_024, 512, 2_304, 640, 12_416},
		{"Epithel", b, 64, 443_584, 64, 40_960, 28_672, 0, 61_760, 896, 172_864},
		{"Epithel", p, 64, 414_912, 64, 40_960, 28_672, 0, 33_088, 896, 144_192},
		{"Epithel", o, 64, 414_592, 64, 40_960, 8_192, 20_480, 32_768, 896, 143_872},
		{"Cholesky", b, 64, 2_879_072, 64, 262_144, 4_096, 0, 266_304, 8_256, 798_912},
		{"Cholesky", p, 64, 2_879_072, 64, 262_144, 4_096, 0, 266_304, 8_256, 798_912},
		{"Cholesky", o, 64, 2_879_072, 64, 262_144, 4_096, 0, 266_304, 8_256, 798_912},
		{"Health", b, 64, 6_144, 32, 448, 448, 0, 896, 800, 3_040},
		{"Health", p, 64, 5_888, 32, 448, 448, 0, 640, 800, 2_784},
		{"Health", o, 64, 5_888, 32, 448, 448, 0, 640, 800, 2_784},
		{"Ocean", o, 256, 467_316, 256, 54_040, 20_480, 16_320, 109_164, 3_584, 256_092},
		{"EM3D", o, 256, 118_016, 256, 16_384, 4_096, 2_048, 9_216, 2_560, 49_664},
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
