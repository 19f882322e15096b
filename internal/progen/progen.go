// Package progen generates random — but well-formed and deadlock-free —
// MiniSplit programs for differential testing. The generated programs mix
// shared scalar and array accesses, local computation, conditionals,
// counted loops, barriers, single-post events, and paired lock regions.
//
// Deadlock freedom by construction:
//   - barriers appear only at the top level of main (never under a
//     conditional), so every processor reaches every barrier;
//   - each event is posted exactly once, by one statically chosen
//     processor, and any waits on it appear later in program order;
//   - locks are emitted as balanced lock/.../unlock templates.
//
// The fuzz tests compile each program at every optimization level, execute
// it on the weak-memory simulator under latency jitter, and check that
// every outcome is producible by some sequentially consistent
// interleaving.
package progen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Options bounds the generated program.
type Options struct {
	Procs     int // number of processors the program is written for
	MaxPhases int // top-level phases separated by barriers (default 3)
	MaxStmts  int // statements per phase (default 4)
	MaxDepth  int // nesting depth of if/for (default 2)
	Arrays    int // number of shared arrays (default 2)
	Scalars   int // number of shared scalars (default 2)
	Events    int // number of events (default 1)
	Locks     int // number of locks (default 1)
}

// BigProc returns generation options for many-processor runs (hundreds to
// thousands of simulated processors): no events or locks, so run time
// stays bounded by the phase structure rather than lock convoys, and a
// slightly wider phase mix so barrier fan-in at scale is actually exercised.
func BigProc(procs int) Options {
	return Options{
		Procs:     procs,
		MaxPhases: 4,
		MaxStmts:  5,
		Events:    -1,
		Locks:     -1,
	}
}

// ScaleTier names one deterministic large program of the analysis scaling
// study: fixed generation options plus a pinned seed, so the scaling
// benchmarks, the pinned-size tests and the system benchmark's compile-2k
// workload all measure the same program without scanning seeds at run time.
// Accesses
// records the built program's access count; the progen package tests pin it
// so a generator change that silently reshapes the tiers fails loudly.
type ScaleTier struct {
	Name     string
	Seed     int64
	Opts     Options
	Accesses int
}

// ScaleTiers returns the large analysis tiers (roughly 2k, 8k, and 33k
// accesses). The programs are barrier-phase-rich — 11–12 top-level barrier
// episodes each — which is the structure the regionized delay-set engine
// exploits, and carry the full event/lock mix so every refinement stage has
// work to do.
func ScaleTiers() []ScaleTier {
	tier := func(name string, seed int64, target, accesses int) ScaleTier {
		return ScaleTier{Name: name, Seed: seed, Accesses: accesses, Opts: Options{
			Procs: 4, MaxPhases: 16, MaxStmts: target / 10, MaxDepth: 2,
			Arrays: 4, Scalars: 4, Events: 3, Locks: 2,
		}}
	}
	return []ScaleTier{
		tier("acc2048", 10, 2048, 2010),
		tier("acc8192", 10, 8192, 8497),
		tier("acc32768", 8, 32768, 33587),
	}
}

// FindScaleTier returns the named tier, or false.
func FindScaleTier(name string) (ScaleTier, bool) {
	for _, t := range ScaleTiers() {
		if t.Name == name {
			return t, true
		}
	}
	return ScaleTier{}, false
}

func (o Options) withDefaults() Options {
	if o.MaxPhases == 0 {
		o.MaxPhases = 3
	}
	if o.MaxStmts == 0 {
		o.MaxStmts = 4
	}
	if o.MaxDepth == 0 {
		o.MaxDepth = 2
	}
	if o.Arrays == 0 {
		o.Arrays = 2
	}
	if o.Scalars == 0 {
		o.Scalars = 2
	}
	// Zero means "default"; negative explicitly requests none.
	if o.Events == 0 {
		o.Events = 1
	} else if o.Events < 0 {
		o.Events = 0
	}
	if o.Locks == 0 {
		o.Locks = 1
	} else if o.Locks < 0 {
		o.Locks = 0
	}
	return o
}

const arraySize = 8

type gen struct {
	rng    *rand.Rand
	opts   Options
	sb     strings.Builder
	indent int
	locals []string // declared int locals in scope
	nLocal int
	events int // events emitted so far
	inLock bool
	nested bool // inside any conditional or loop
}

// Generate returns a random program's source text.
func Generate(seed int64, opts Options) string {
	opts = opts.withDefaults()
	g := &gen{rng: rand.New(rand.NewSource(seed)), opts: opts}
	for i := 0; i < opts.Scalars; i++ {
		g.linef("shared int S%d = %d;", i, g.rng.Intn(5))
	}
	for i := 0; i < opts.Arrays; i++ {
		g.linef("shared int A%d[%d];", i, arraySize)
	}
	for i := 0; i < opts.Events; i++ {
		g.linef("event E%d;", i)
	}
	for i := 0; i < opts.Locks; i++ {
		g.linef("lock L%d;", i)
	}
	g.linef("func main() {")
	g.indent++
	g.linef("local int acc = 0;")
	g.locals = append(g.locals, "acc")
	g.linef("local int scratch[4];")
	phases := 1 + g.rng.Intn(g.opts.MaxPhases)
	for ph := 0; ph < phases; ph++ {
		if ph > 0 {
			g.linef("barrier;")
		}
		n := 1 + g.rng.Intn(g.opts.MaxStmts)
		for s := 0; s < n; s++ {
			g.stmt(g.opts.MaxDepth)
		}
	}
	// Fold the accumulator into shared memory so local computation is
	// observable in outcomes. The projection to a small residue keeps the
	// outcome space small enough for the SC samplers in the fuzz oracle
	// to cover (acc accumulates racy reads; publishing it raw would make
	// outcome matching combinatorially hopeless).
	g.linef("A0[MYPROC %% %d] = acc %% 4;", arraySize)
	g.indent--
	g.linef("}")
	return g.sb.String()
}

func (g *gen) linef(format string, args ...any) {
	g.sb.WriteString(strings.Repeat("    ", g.indent))
	fmt.Fprintf(&g.sb, format, args...)
	g.sb.WriteByte('\n')
}

// smallExpr returns a low-entropy expression (constants and MYPROC only):
// used for values written to shared memory, so racy data flowing between
// processors stays within a small set and the fuzz oracle's outcome
// sampling remains tractable. Racy values still flow *into* the local
// accumulator through reads, exercising the ordering machinery.
func (g *gen) smallExpr() string {
	switch g.rng.Intn(4) {
	case 0:
		return fmt.Sprint(g.rng.Intn(7))
	case 1:
		return "MYPROC"
	case 2:
		return fmt.Sprintf("(MYPROC + %d)", 1+g.rng.Intn(3))
	default:
		return fmt.Sprintf("(%d - MYPROC)", g.rng.Intn(4))
	}
}

// expr returns a random int expression over locals, constants, MYPROC.
func (g *gen) expr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(3) {
		case 0:
			return fmt.Sprint(g.rng.Intn(7))
		case 1:
			return "MYPROC"
		default:
			if len(g.locals) == 0 {
				return "1"
			}
			return g.locals[g.rng.Intn(len(g.locals))]
		}
	}
	ops := []string{"+", "-", "*"}
	op := ops[g.rng.Intn(len(ops))]
	return fmt.Sprintf("(%s %s %s)", g.expr(depth-1), op, g.expr(depth-1))
}

// sharedRef returns a random shared lvalue/rvalue.
func (g *gen) sharedRef() string {
	if g.rng.Intn(2) == 0 && g.opts.Scalars > 0 {
		return fmt.Sprintf("S%d", g.rng.Intn(g.opts.Scalars))
	}
	arr := g.rng.Intn(g.opts.Arrays)
	switch g.rng.Intn(3) {
	case 0:
		return fmt.Sprintf("A%d[%d]", arr, g.rng.Intn(arraySize))
	case 1:
		return fmt.Sprintf("A%d[MYPROC %% %d]", arr, arraySize)
	default:
		return fmt.Sprintf("A%d[(MYPROC + %d) %% %d]", arr, 1+g.rng.Intn(3), arraySize)
	}
}

func (g *gen) stmt(depth int) {
	choices := 8
	switch g.rng.Intn(choices) {
	case 7: // local array traffic
		g.linef("scratch[%d] = %s;", g.rng.Intn(4), g.expr(1))
		g.linef("acc = acc + scratch[%d];", g.rng.Intn(4))
	case 0: // local accumulation from a shared read
		g.linef("acc = acc + %s;", g.sharedRef())
	case 1: // shared write (low-entropy value; see smallExpr)
		g.linef("%s = %s;", g.sharedRef(), g.smallExpr())
	case 2: // local declaration
		name := fmt.Sprintf("v%d", g.nLocal)
		g.nLocal++
		g.linef("local int %s = %s;", name, g.expr(2))
		g.locals = append(g.locals, name)
	case 3: // conditional (on MYPROC or a local, no barriers inside)
		if depth <= 0 {
			g.linef("acc = acc + 1;")
			return
		}
		saved := len(g.locals)
		wasNested := g.nested
		g.nested = true
		g.linef("if (%s) {", g.cond())
		g.indent++
		for i := 0; i <= g.rng.Intn(2); i++ {
			g.stmt(depth - 1)
		}
		g.locals = g.locals[:saved]
		g.indent--
		if g.rng.Intn(2) == 0 {
			g.linef("} else {")
			g.indent++
			g.stmt(depth - 1)
			g.locals = g.locals[:saved]
			g.indent--
		}
		g.linef("}")
		g.nested = wasNested
	case 4: // counted loop
		if depth <= 0 {
			g.linef("acc = acc * 2;")
			return
		}
		idx := fmt.Sprintf("i%d", g.nLocal)
		g.nLocal++
		wasNested := g.nested
		g.nested = true
		g.linef("for (local int %s = 0; %s < %d; %s = %s + 1) {", idx, idx, 2+g.rng.Intn(3), idx, idx)
		g.indent++
		saved := len(g.locals)
		g.locals = append(g.locals, idx)
		for i := 0; i <= g.rng.Intn(2); i++ {
			g.stmt(depth - 1)
		}
		g.locals = g.locals[:saved]
		g.indent--
		g.linef("}")
		g.nested = wasNested
	case 5: // lock region (balanced; no nesting)
		if g.inLock || g.opts.Locks == 0 {
			g.linef("acc = acc + 2;")
			return
		}
		l := g.rng.Intn(g.opts.Locks)
		g.inLock = true
		g.linef("lock(L%d);", l)
		g.indent++
		for i := 0; i <= g.rng.Intn(2); i++ {
			if g.rng.Intn(2) == 0 {
				g.linef("acc = acc + %s;", g.sharedRef())
			} else {
				g.linef("%s = %s;", g.sharedRef(), g.smallExpr())
			}
		}
		g.indent--
		g.linef("unlock(L%d);", l)
		g.inLock = false
	case 6: // post/wait pair: one processor posts, everyone may wait later.
		// Only at the top level of main: a post under a condition or in a
		// loop could deadlock (never posted) or double-post.
		if g.events >= g.opts.Events || g.inLock || g.nested {
			g.linef("%s = %s;", g.sharedRef(), g.smallExpr())
			return
		}
		ev := g.events
		g.events++
		poster := g.rng.Intn(g.opts.Procs)
		g.linef("if (MYPROC == %d) {", poster)
		g.indent++
		if g.rng.Intn(2) == 0 {
			g.linef("%s = %s;", g.sharedRef(), g.smallExpr())
		}
		g.linef("post(E%d);", ev)
		g.indent--
		g.linef("}")
		g.linef("wait(E%d);", ev)
		if g.rng.Intn(2) == 0 {
			g.linef("acc = acc + %s;", g.sharedRef())
		}
	}
}

// cond returns a branch condition that cannot divide by zero.
func (g *gen) cond() string {
	switch g.rng.Intn(3) {
	case 0:
		return fmt.Sprintf("MYPROC %% 2 == %d", g.rng.Intn(2))
	case 1:
		return fmt.Sprintf("MYPROC < %d", 1+g.rng.Intn(g.opts.Procs))
	default:
		if len(g.locals) == 0 {
			return "1 == 1"
		}
		return fmt.Sprintf("%s > %d", g.locals[g.rng.Intn(len(g.locals))], g.rng.Intn(4))
	}
}
