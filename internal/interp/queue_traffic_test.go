package interp_test

import (
	"fmt"
	"testing"

	splitc "repro"
	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/machine"
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
