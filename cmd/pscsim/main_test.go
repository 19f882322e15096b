package main

import (
	"testing"

	"repro"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
)

func TestParseLevel(t *testing.T) {
	cases := map[string]bool{
		"blocking": true, "baseline": true, "pipelined": true,
		"oneway": true, "unsafe": true, "bogus": false, "": false,
	}
	for name, ok := range cases {
		_, err := splitc.ParseLevel(name)
		if ok && err != nil {
			t.Errorf("ParseLevel(%q): %v", name, err)
		}
		if !ok && err == nil {
			t.Errorf("ParseLevel(%q): expected error", name)
		}
	}
}

func TestMachineByName(t *testing.T) {
	for _, name := range machine.Names() {
		cfg, err := machine.ByName(name, 8)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
		if cfg.Procs != 8 {
			t.Errorf("ByName(%q): procs = %d", name, cfg.Procs)
		}
	}
	if _, err := machine.ByName("cray", 8); err == nil {
		t.Error("unknown machine should fail")
	}
}

// TestCompareSCReadsPrints holds -sc's check to the whole outcome: two runs
// that end with the same memory but print different lines disagree, and
// the same runs with equal print logs agree.
func TestCompareSCReadsPrints(t *testing.T) {
	mem := func() map[string][]ir.Value {
		return map[string][]ir.Value{"X": {ir.IntVal(1), ir.IntVal(2)}}
	}
	weak := &interp.Result{Memory: mem(), Prints: []string{"v 1", "v 2"}}
	sc := &interp.SCResult{Memory: mem(), Prints: []string{"v 2", "v 1"}}
	weakKey, scKey, same := compareSC(weak, sc)
	if same || weakKey == scKey {
		t.Fatalf("print logs differ but the check agrees: weak %q, sc %q", weakKey, scKey)
	}
	sc.Prints = []string{"v 1", "v 2"}
	if weakKey, scKey, same = compareSC(weak, sc); !same || weakKey != scKey {
		t.Fatalf("equal outcomes disagree: weak %q, sc %q", weakKey, scKey)
	}
}
