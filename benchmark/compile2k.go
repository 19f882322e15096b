package main

import (
	"crypto/sha256"
	"fmt"

	splitc "repro"
	"repro/internal/progen"
	"repro/internal/syncanal"
	"repro/internal/target"
)

// The acc2048 tier's known answers (progen.ScaleTiers pins the access
// count; the |R| and |D| sizes are the ones ROADMAP holds every analysis
// change to).
const (
	acc2048Accesses = 2010
	acc2048R        = 1821813
	acc2048D        = 1195464
)

// compile2k is one splitc.Compile of the pinned 2k-access program at the
// one-way level with communication elimination: the workload where the
// delay-set and synchronization analyses do the work.
type compile2k struct {
	src    string
	opts   splitc.Options
	digest [sha256.Size]byte
}

func (w *compile2k) clients() int { return 1 }

// tail: a 20 s run holds about 25 compiles of 0.7–0.8 s, which leaves ten
// samples beyond the 60th percentile.
func (w *compile2k) tail() float64 { return 60 }

func (w *compile2k) setUp(seed int64) error {
	tier, ok := progen.FindScaleTier("acc2048")
	if !ok {
		return fmt.Errorf("progen has no acc2048 tier")
	}
	w.src = progen.Generate(tier.Seed, tier.Opts)
	w.opts = splitc.Options{Procs: 4, Level: splitc.LevelOneWay, CSE: true}
	p, err := splitc.Compile(w.src, w.opts)
	if err != nil {
		return err
	}
	w.digest = sha256.Sum256([]byte(p.TargetText()))
	return w.check(len(p.Fn.Accesses), p.Analysis, p.Target)
}

// check holds a compile to the tier's pins and to the target text of the
// warm-up compile.
func (w *compile2k) check(accesses int, a *syncanal.Result, tp *target.Prog) error {
	if accesses != acc2048Accesses || a.R.Size() != acc2048R || a.D.Size() != acc2048D {
		return fmt.Errorf("pins: %d accesses, |R|=%d, |D|=%d; want %d, %d, %d",
			accesses, a.R.Size(), a.D.Size(), acc2048Accesses, acc2048R, acc2048D)
	}
	if sha256.Sum256([]byte(tp.String())) != w.digest {
		return fmt.Errorf("target text differs from the warm-up compile's")
	}
	return nil
}

func (w *compile2k) op(tid, i int, lt *layerTrace) (string, error) {
	if lt == nil {
		p, err := splitc.Compile(w.src, w.opts)
		if err != nil {
			return "", err
		}
		return "", w.check(len(p.Fn.Accesses), p.Analysis, p.Target)
	}
	pctx, layers, err := tracedCompile(lt.tr, w.src, w.opts, -1, i, tid)
	if err != nil {
		return "", err
	}
	lt.add(layers.per(1))
	return "", w.check(len(pctx.Fn.Accesses), pctx.Analysis, pctx.Prog())
}

func (w *compile2k) start(lt *layerTrace) error { return nil }

func (w *compile2k) probe(lt *layerTrace) error { return nil }

func (w *compile2k) report(r *result, sp *spec, ph *phase, lt *layerTrace) {
	if lt == nil {
		return
	}
	// ROADMAP item 1's "layers sum to the end-to-end figure within ε".
	if u := median(lt.vals["pass.unattributed_pct"]); u > 2 {
		lt.fail("pass spans leave %.2f%% of the compile span unattributed, over 2%%", u)
	}
}

func (w *compile2k) shutDown() {}
