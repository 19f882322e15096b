package syncanal

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/delay"
	"repro/internal/ir"
	"repro/internal/progen"
	"repro/internal/sem"
	"repro/internal/source"
)

// buildSrc compiles program text to IR, or nil when any front-end stage
// rejects it (mutated sources are only used when they still build).
func buildSrc(src string, procs int) *ir.Fn {
	prog, err := source.Parse(src)
	if err != nil {
		return nil
	}
	info, err := sem.Check(prog)
	if err != nil {
		return nil
	}
	fn, err := ir.Build(info, ir.BuildOptions{Procs: procs})
	if err != nil {
		return nil
	}
	return fn
}

var litAssign = regexp.MustCompile(`= (\d) *;`)

// editLiteral bumps the first single-digit literal stored by a statement
// (declaration initializers are skipped: they never reach the IR body, so
// editing one is invisible to the analysis by design) — a one-statement
// edit that leaves the access structure alone but changes the program.
func editLiteral(src string) string {
	lines := strings.Split(src, "\n")
	for i, line := range lines {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "shared") || strings.HasPrefix(trimmed, "local") {
			continue
		}
		m := litAssign.FindStringIndex(line)
		if m == nil {
			continue
		}
		d := line[m[0]+2] - '0'
		lines[i] = line[:m[0]+2] + string('0'+(d+1)%10) + line[m[0]+3:]
		return strings.Join(lines, "\n")
	}
	return ""
}

// editDuplicate duplicates the first shared-scalar store statement — an
// edit that inserts an access and renumbers every access after it.
func editDuplicate(src string) string {
	for _, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "S") && litAssign.MatchString(trimmed) {
			return strings.Replace(src, line, line+"\n"+line, 1)
		}
	}
	return ""
}

func requireSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	for _, s := range []struct {
		name      string
		got, want *delay.Set
	}{{"D1", got.D1, want.D1}, {"D", got.D, want.D}} {
		if s.got.Size() != s.want.Size() {
			t.Fatalf("%s %s: %d pairs vs cold %d", label, s.name, s.got.Size(), s.want.Size())
		}
		for _, p := range s.want.Pairs() {
			if !s.got.Has(p.A, p.B) {
				t.Fatalf("%s %s: cold pair [%d,%d] missing", label, s.name, p.A, p.B)
			}
		}
	}
	if got.R.Size() != want.R.Size() {
		t.Fatalf("%s: |R| %d vs cold %d", label, got.R.Size(), want.R.Size())
	}
}

// TestIncrementalMatchesCold replays an edit session — original program,
// literal edit, access-inserting edit, across many seeds — through one
// Incremental instance and requires every step to be pair-identical to a
// cold analysis of the same version. The shared region cache persists
// across all steps, so any stale or colliding cache entry would surface
// as a divergence here.
func TestIncrementalMatchesCold(t *testing.T) {
	opts := progen.Options{
		Procs: 4, MaxPhases: 3, MaxStmts: 6, MaxDepth: 2,
		Arrays: 3, Scalars: 3, Events: 2, Locks: 2,
	}
	inc := NewIncremental(Options{})
	checked := 0
	for seed := int64(0); seed < 40 && checked < 25; seed++ {
		src := progen.Generate(seed, opts)
		fn := buildSrc(src, 4)
		if fn == nil || len(fn.Accesses) == 0 {
			continue
		}
		requireSameResult(t, fmt.Sprintf("seed %d", seed),
			inc.Analyze(fn), Analyze(fn, Options{}))
		for _, edit := range []struct {
			name   string
			mutate func(string) string
		}{{"literal", editLiteral}, {"duplicate", editDuplicate}} {
			src2 := edit.mutate(src)
			if src2 == "" || src2 == src {
				continue
			}
			fn2 := buildSrc(src2, 4)
			if fn2 == nil {
				continue
			}
			requireSameResult(t, fmt.Sprintf("seed %d %s-edit", seed, edit.name),
				inc.Analyze(fn2), Analyze(fn2, Options{}))
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("only %d buildable seeds, want >= 20", checked)
	}
}

// TestIncrementalFingerprintHit locks down the no-work fast path: a
// rebuild of unchanged source (and a pure reformatting of it) returns the
// previous Result without re-analysis, while a real edit does not.
func TestIncrementalFingerprintHit(t *testing.T) {
	opts := progen.Options{
		Procs: 4, MaxPhases: 3, MaxStmts: 6, MaxDepth: 2,
		Arrays: 3, Scalars: 3, Events: 2, Locks: 2,
	}
	var src string
	var fn *ir.Fn
	for seed := int64(0); ; seed++ {
		if seed == 40 {
			t.Fatal("no buildable, editable seed found")
		}
		src = progen.Generate(seed, opts)
		fn = buildSrc(src, 4)
		if fn != nil && len(fn.Accesses) > 0 && editLiteral(src) != "" &&
			buildSrc(editLiteral(src), 4) != nil {
			break
		}
	}
	inc := NewIncremental(Options{})
	r1 := inc.Analyze(fn)
	if inc.Analyze(buildSrc(src, 4)) != r1 {
		t.Fatal("rebuild of identical source re-analyzed instead of hitting the fingerprint")
	}
	reformatted := strings.ReplaceAll(src, "    ", "\t")
	if rf := buildSrc(reformatted, 4); rf != nil {
		if inc.Analyze(rf) != r1 {
			t.Fatal("reformatted source re-analyzed instead of hitting the fingerprint")
		}
	}
	// A stored-literal edit changes the printed body but no analysis
	// input: the input-signature tier certifies that and hands back the
	// previous Result with zero class rows re-derived.
	fn2 := buildSrc(editLiteral(src), 4)
	if inc.Analyze(fn2) != r1 {
		t.Fatal("analysis-invisible literal edit re-analyzed instead of hitting the input signature")
	}
	if st := inc.Stats(); st.InputHits != 1 {
		t.Fatalf("literal edit: InputHits = %d, want 1 (stats %+v)", st.InputHits, st)
	}
	// Inserting an access renumbers the structure: the previous Result
	// must not be returned.
	if dup := editDuplicate(src); dup != "" {
		if fn3 := buildSrc(dup, 4); fn3 != nil {
			if inc.Analyze(fn3) == r1 {
				t.Fatal("access-inserting edit returned the stale previous Result")
			}
		}
	}
}

// fastest returns the shortest of n timings of f. Scheduling, GC and the
// other packages `go test ./...` runs beside this one only ever add to a
// wall-clock reading, so the minimum is the one that measures the code.
func fastest(n int, f func()) time.Duration {
	best := time.Duration(-1)
	for i := 0; i < n; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); best < 0 || d < best {
			best = d
		}
	}
	return best
}

// TestIncrementalTierSpeedup measures the session economics on the pinned
// 2k-access tier: the fingerprint fast path must be at least 20x faster
// than the cold analysis, and a one-statement edit must beat a cold
// re-analysis while reusing memoized regions. Each side of a ratio is the
// fastest of several runs, and the session's Stats counters say every fast
// run was answered by the tier it is timed for.
func TestIncrementalTierSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second tier analysis in -short mode")
	}
	tier, _ := progen.FindScaleTier("acc2048")
	src := progen.Generate(tier.Seed, tier.Opts)
	fn := buildSrc(src, tier.Opts.Procs)
	if fn == nil {
		t.Fatal("acc2048 tier source does not build")
	}
	const reps = 5
	var inc *Incremental
	cold := fastest(3, func() {
		inc = NewIncremental(Options{})
		inc.Analyze(fn)
	})

	rebuilt := buildSrc(src, tier.Opts.Procs)
	var r *Result
	warm := fastest(reps, func() { r = inc.Analyze(rebuilt) })
	if st := inc.Stats(); r == nil || st.FullHits != reps {
		t.Fatalf("rebuilt source: FullHits = %d, want %d (stats %+v)", st.FullHits, reps, st)
	}
	if warm*20 > cold {
		t.Fatalf("fingerprint fast path %v vs cold %v: below 20x", warm, cold)
	}

	// Class-preserving edit: the literal change is certified invisible by
	// the input signature, so the per-edit cost is Prepare plus digests.
	src2 := editLiteral(src)
	fn2 := buildSrc(src2, tier.Opts.Procs)
	if src2 == "" || fn2 == nil {
		t.Fatal("acc2048 tier source has no editable literal")
	}
	start := time.Now()
	incRes := inc.Analyze(fn2)
	edited := time.Since(start)
	coldRes := Analyze(fn2, Options{})
	requireSameResult(t, "acc2048 literal-edit", incRes, coldRes)
	if st := inc.Stats(); st.InputHits != 1 {
		t.Fatalf("literal edit: InputHits = %d, want 1 (stats %+v)", st.InputHits, st)
	}
	// Undoing and redoing the edit is the same tier each way: the printed
	// body differs from the last one seen, the analysis inputs do not.
	flip, i := []*ir.Fn{rebuilt, fn2}, 0
	if d := fastest(2*(reps-1), func() { inc.Analyze(flip[i%2]); i++ }); d < edited {
		edited = d
	}
	if st := inc.Stats(); st.InputHits != 2*reps-1 {
		t.Fatalf("literal edit undone and redone: InputHits = %d, want %d (stats %+v)", st.InputHits, 2*reps-1, st)
	}
	if edited*20 > cold {
		t.Fatalf("class-preserving edit %v vs cold %v: below 20x", edited, cold)
	}

	// Structural edit: inserting an access renumbers everything after it,
	// so the pipeline re-runs — but region fingerprints are taken in
	// region-local ids, so the untouched regions' back-path rows replay
	// from the cache and only the touched classes are re-derived.
	src3 := editDuplicate(src)
	fn3 := buildSrc(src3, tier.Opts.Procs)
	if src3 == "" || fn3 == nil {
		t.Fatal("acc2048 tier source has no duplicable store")
	}
	h0, m0 := inc.CacheStats()
	start = time.Now()
	incRes3 := inc.Analyze(fn3)
	edited3 := time.Since(start)
	coldRes3 := Analyze(fn3, Options{})
	requireSameResult(t, "acc2048 duplicate-edit", incRes3, coldRes3)
	hits, misses := inc.CacheStats()
	t.Logf("cold %v, fingerprint-hit %v (%.0fx), literal edit %v (%.0fx), duplicate edit %v, region cache +%d hits / +%d misses",
		cold, warm, float64(cold)/float64(warm), edited, float64(cold)/float64(edited),
		edited3, hits-h0, misses-m0)
	if hits-h0 == 0 {
		t.Fatal("access-inserting edit reused no memoized regions")
	}
}
