package scverify

import (
	"os"
	"path/filepath"
	"testing"

	splitc "repro"
)

// TestCSEKeepsSC verifies the two programs in testdata, each built so that
// a section 7 rewrite reaches a final state no sequentially consistent
// execution reaches unless the rewrite respects the delay set:
// mp_reuse.ms, where global value reuse would move a read of D above a
// read of the flag F, and wb_flag.ms, where write-back would move a write
// of D below the write of F. Both run with communication elimination at
// every level that enforces a delay set, against the exact SC outcome set.
// Only the outcome oracle sees these: an eliminated get never issues, so
// the trace holds no access for an ordering cycle to pass through.
func TestCSEKeepsSC(t *testing.T) {
	for _, name := range []string{"mp_reuse.ms", "wb_flag.ms"} {
		src, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Verify(string(src), Options{
			Procs:     2,
			CSE:       true,
			Levels:    []splitc.Level{splitc.LevelBlocking, splitc.LevelBaseline, splitc.LevelPipelined, splitc.LevelOneWay},
			Schedules: Schedules(20),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.ExactOracle {
			t.Fatalf("%s: SC outcome set not enumerated exactly", name)
		}
		if !rep.OK() {
			t.Errorf("%s flagged:\n%s", name, rep.Summary())
		}
	}
}
