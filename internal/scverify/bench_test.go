package scverify

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	splitc "repro"
	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/progen"
)

// mixCase is one Verify call of the verify-mix shapes: the three groups
// the repository benchmark's verify-mix workload laps over (benchmark/
// verify.go), at fixed seeds.
type mixCase struct {
	name string
	src  string
	opts Options
}

// mixApps is four paper kernels at 4 processors against their oracles.
func mixApps() []mixCase {
	var out []mixCase
	for _, name := range []string{"Ocean", "EM3D", "Cholesky", "Health"} {
		k := *apps.ByName(name)
		out = append(out, mixCase{name: name, src: k.Source(4, 1), opts: Options{
			Procs: 4, Deterministic: true,
			Validate: func(mem map[string][]ir.Value) error { return k.Validate(mem, 4, 1) },
		}})
	}
	return out
}

// mixRacy is the first 32 of 256 candidates drawn from seed 1 that have
// 8-16 accesses and really race: two or more SC outcomes within 2000
// enumerator states.
func mixRacy(tb testing.TB) []mixCase {
	tb.Helper()
	var out []mixCase
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 256 && len(out) < 32; i++ {
		pseed := rng.Int63()
		src := progen.Generate(pseed, progen.Options{Procs: 2})
		p, err := splitc.Compile(src, splitc.Options{Procs: 2, Level: splitc.LevelBlocking})
		if err != nil {
			tb.Fatalf("progen seed %d: %v", pseed, err)
		}
		if n := len(p.Fn.Accesses); n < 8 || n > 16 {
			continue
		}
		if _, st, ok := interp.EnumerateSCStats(p.Fn, 2, 2000); !ok || st.Outcomes < 2 {
			continue
		}
		out = append(out, mixCase{name: fmt.Sprintf("progen-%d", pseed), src: src, opts: Options{Procs: 2, CSE: true}})
	}
	if len(out) < 32 {
		tb.Fatalf("only %d usable racy programs", len(out))
	}
	return out
}

// mixWeakened is the negative suite: every case must be flagged.
func mixWeakened() []mixCase {
	var out []mixCase
	for _, tc := range negSuite() {
		schedules := tc.schedules
		if schedules == nil {
			schedules = Schedules(10)
		}
		out = append(out, mixCase{name: tc.name, src: tc.src, opts: Options{
			Procs: 2, Levels: []splitc.Level{tc.level}, Weaken: tc.weaken, Schedules: schedules,
		}})
	}
	return out
}

// BenchmarkVerify times one lap of verdicts per group. racy-deadline is
// the racy lap under a context that can expire, the way pscd calls it:
// next to racy it shows what polling the context before every run costs.
func BenchmarkVerify(b *testing.B) {
	lap := func(cases []mixCase, wantOK bool, verify func(mixCase) (*Report, error)) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, c := range cases {
					rep, err := verify(c)
					if err != nil {
						b.Fatalf("%s: %v", c.name, err)
					}
					if rep.OK() != wantOK {
						b.Fatalf("%s: OK = %v, want %v\n%s", c.name, rep.OK(), wantOK, rep.Summary())
					}
				}
			}
		}
	}
	plain := func(c mixCase) (*Report, error) { return Verify(c.src, c.opts) }
	racy := mixRacy(b)
	b.Run("apps", lap(mixApps(), true, plain))
	b.Run("racy", lap(racy, true, plain))
	b.Run("weakened", lap(mixWeakened(), false, plain))
	b.Run("racy-deadline", lap(racy, true, func(c mixCase) (*Report, error) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		defer cancel()
		return VerifyContext(ctx, c.src, c.opts)
	}))
}
