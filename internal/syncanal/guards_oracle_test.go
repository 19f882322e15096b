package syncanal

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/delay"
	"repro/internal/graph"
	"repro/internal/ir"
)

// mustHeldLocksMap is the oracle for mustHeldLocks: the same forward
// must-dataflow over maps of lock keys, cloned at every transfer, with
// unvisited predecessors skipped in the meet (TOP). held[acc] = set of lock
// keys held on every path reaching the access.
func mustHeldLocksMap(fn *ir.Fn) map[int]map[string]bool {
	nb := len(fn.Blocks)
	in := make([]map[string]bool, nb)
	visited := make([]bool, nb)
	preds := fn.Preds()

	clone := func(m map[string]bool) map[string]bool {
		out := make(map[string]bool, len(m))
		for k, v := range m {
			if v {
				out[k] = true
			}
		}
		return out
	}
	apply := func(s map[string]bool, a *ir.Access) {
		switch a.Kind {
		case ir.AccLock:
			s[accessKey(fn, a)] = true
		case ir.AccUnlock:
			delete(s, accessKey(fn, a))
		}
	}
	transfer := func(b *ir.Block, s map[string]bool) map[string]bool {
		out := clone(s)
		for _, st := range b.Stmts {
			if a := ir.AccessOf(st); a != nil {
				apply(out, a)
			}
		}
		return out
	}
	intersect := func(a, b map[string]bool) map[string]bool {
		out := make(map[string]bool)
		for k := range a {
			if b[k] {
				out[k] = true
			}
		}
		return out
	}
	sameSet := func(a, b map[string]bool) bool {
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if !b[k] {
				return false
			}
		}
		return true
	}

	in[0] = map[string]bool{}
	visited[0] = true
	for changed := true; changed; {
		changed = false
		for _, b := range fn.Blocks {
			if b.ID == 0 {
				continue
			}
			var meet map[string]bool
			any := false
			for _, p := range preds[b.ID] {
				if !visited[p.ID] {
					continue
				}
				out := transfer(p, in[p.ID])
				if !any {
					meet = out
					any = true
				} else {
					meet = intersect(meet, out)
				}
			}
			if !any {
				continue
			}
			if !visited[b.ID] || !sameSet(in[b.ID], meet) {
				in[b.ID] = meet
				visited[b.ID] = true
				changed = true
			}
		}
	}

	held := make(map[int]map[string]bool)
	for _, b := range fn.Blocks {
		if !visited[b.ID] {
			continue
		}
		cur := clone(in[b.ID])
		for _, st := range b.Stmts {
			if a := ir.AccessOf(st); a != nil {
				held[a.ID] = clone(cur)
				apply(cur, a)
			}
		}
	}
	return held
}

// manyLocksSource is a program with 70 lock keys, so every guard set spans
// two words: a section nested under all 70 locks, large enough for the
// class solver's 256-access regions, then two sections under keys past the
// first word.
func manyLocksSource() string {
	const keys = 70
	var sb strings.Builder
	sb.WriteString("shared int X[8];\nshared int Y;\nshared int Z;\nlock m[80];\nfunc main() {\n")
	for i := 0; i < keys; i++ {
		fmt.Fprintf(&sb, "    lock(m[%d]);\n", i)
	}
	sb.WriteString("    X[MYPROC] = X[MYPROC] + Y;\n    Y = Y + 1;\n")
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "    X[%d] = X[%d] + Y;\n", i%8, (i+3)%8)
	}
	for i := keys - 1; i >= 0; i-- {
		fmt.Fprintf(&sb, "    unlock(m[%d]);\n", i)
	}
	sb.WriteString("    lock(m[66]);\n    Y = Y + Z;\n    Z = Z + 1;\n    unlock(m[66]);\n")
	sb.WriteString("    lock(m[69]);\n    lock(m[1]);\n    Z = Z + Y;\n    X[0] = Z;\n    unlock(m[1]);\n    unlock(m[69]);\n}\n")
	return sb.String()
}

func manyLocksProgram() diffProgram {
	return diffProgram{"70 lock keys", ir.MustBuild(manyLocksSource(), ir.BuildOptions{Procs: 4})}
}

// TestHeldLocksMatchMapOracle holds the bitset must-held sets to the map
// dataflow they replaced, access by access, on the differential programs,
// the 70-key program and (under PSC_SCALE_TIERS=1) acc8192.
func TestHeldLocksMatchMapOracle(t *testing.T) {
	progs := diffPrograms(t)
	if os.Getenv("PSC_SCALE_TIERS") != "" {
		progs = append(progs, diffProgram{"acc8192", tierProgram(t, "acc8192")})
	}
	wide := false
	for _, p := range progs {
		keys := internLockKeys(p.fn)
		got := mustHeldLocks(p.fn, keys)
		want := mustHeldLocksMap(p.fn)
		for _, a := range p.fn.Accesses {
			names := map[string]bool{}
			for l, name := range keys.names {
				if graph.BitGet(got.row(a.ID), l) {
					names[name] = true
				}
			}
			if len(names) != len(want[a.ID]) {
				t.Fatalf("%s: access %d holds %v, oracle %v", p.label, a.ID, names, want[a.ID])
			}
			for name := range want[a.ID] {
				if !names[name] {
					t.Fatalf("%s: access %d holds %v, oracle %v", p.label, a.ID, names, want[a.ID])
				}
			}
		}
		wide = wide || got.kw > 1
	}
	if !wide {
		t.Fatal("no program's lock keys cross the 64-key word boundary")
	}
}

// TestManyLockKeysMatchReference runs the 70-key program — guard sets of
// two words, in a region large enough for the class solver — against the
// per-access oracle (analyzeOracle), which shares neither the R classes,
// the access classes nor the cover memo, on the per-pair reference engine
// and on delay.Compute. The locks must
// matter: without them D is larger.
func TestManyLockKeysMatchReference(t *testing.T) {
	fn := manyLocksProgram().fn
	got := Analyze(fn, Options{})
	if got.LargestRegion < 256 {
		t.Fatalf("largest region %d, under the class solver's 256", got.LargestRegion)
	}
	wide := false
	for id, ls := range got.Guards {
		wide = wide || fn.Accesses[id].Kind.IsData() && ls["m[66]"]
	}
	if !wide {
		t.Fatal("no data access is guarded by a key past the first word")
	}
	identicalSets(t, "reference D", got.D, analyzeOracle(fn, Options{}, delay.ComputeReference).D)
	identicalSets(t, "per-access R D", got.D, analyzeOracle(fn, Options{}, delay.Compute).D)
	if unlocked := Analyze(fn, Options{NoLocks: true}).D.Size(); got.D.Size() >= unlocked {
		t.Fatalf("|D| %d with guards, %d without: the locks remove nothing", got.D.Size(), unlocked)
	}
}
