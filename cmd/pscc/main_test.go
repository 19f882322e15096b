package main

import (
	"strings"
	"testing"

	"repro"
	"repro/internal/pass"
)

func plan(t *testing.T, opts splitc.Options) []string {
	t.Helper()
	names, err := splitc.PassNames(opts)
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func TestResolveDumpsDefaultsToTarget(t *testing.T) {
	names := plan(t, splitc.Options{Procs: 8, Level: splitc.LevelOneWay})
	dumps, err := resolveDumps(true, false, "", names)
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 1 || !dumps["insert-syncs"] {
		t.Errorf("default dumps = %v, want only the final pass (insert-syncs)", dumps)
	}
}

func TestResolveDumpsTargetYields(t *testing.T) {
	// Another dump requested without -dump-target set explicitly: the
	// default target dump must switch off.
	names := plan(t, splitc.Options{Procs: 8, Level: splitc.LevelOneWay})
	dumps, err := resolveDumps(true, false, "parse,build-ir", names)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"parse": true, "build-ir": true}
	if len(dumps) != len(want) || !dumps["parse"] || !dumps["build-ir"] {
		t.Errorf("dumps = %v, want %v", dumps, want)
	}
	// Explicitly set -dump-target composes with the others.
	dumps, err = resolveDumps(true, true, "parse", names)
	if err != nil {
		t.Fatal(err)
	}
	if !dumps["parse"] || !dumps["insert-syncs"] {
		t.Errorf("dumps = %v, want parse and insert-syncs", dumps)
	}
}

func TestResolveDumpsDumpAfter(t *testing.T) {
	names := plan(t, splitc.Options{Procs: 8, Level: splitc.LevelOneWay})
	dumps, err := resolveDumps(true, false, "sync-motion, one-way", names)
	if err != nil {
		t.Fatal(err)
	}
	if !dumps["sync-motion"] || !dumps["one-way"] || dumps["insert-syncs"] {
		t.Errorf("dumps = %v, want sync-motion and one-way only", dumps)
	}
	if _, err := resolveDumps(true, false, "no-such-pass", names); err == nil {
		t.Error("unknown -dump-after pass should fail")
	}
	// A pass another level runs is also an error: LevelBlocking plans no
	// one-way pass.
	blocking := plan(t, splitc.Options{Procs: 8, Level: splitc.LevelBlocking})
	if _, err := resolveDumps(true, false, "one-way", blocking); err == nil {
		t.Error("-dump-after for a pass outside the pipeline should fail")
	}
}

func TestFormatPassStats(t *testing.T) {
	out := formatPassStats([]pass.Stat{
		{Name: "parse", Counters: map[string]int{"decls": 3, "funcs": 1}},
		{Name: "sync-analysis", Counters: map[string]int{"final_delays": 2}},
	})
	if !strings.Contains(out, "== pass stats ==") {
		t.Error("missing header")
	}
	if !strings.Contains(out, "decls=3 funcs=1") {
		t.Errorf("counters not sorted/joined:\n%s", out)
	}
	if !strings.Contains(out, "sync-analysis") {
		t.Errorf("missing pass row:\n%s", out)
	}
}
