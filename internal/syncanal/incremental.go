package syncanal

import (
	"sort"

	"repro/internal/delay"
	"repro/internal/ir"
	"repro/internal/sem"
)

// Incremental is a session of repeated analyses over successive versions
// of a program — the edit-analyze loop of an optimizing compiler front
// end. It layers two reuse mechanisms over the batch Analyze:
//
//   - A whole-program fingerprint. When the rebuilt function is
//     structurally identical to the previous one (rebuilds after edits to
//     comments, formatting, or code the analysis never sees), the previous
//     Result is returned with no analysis work at all.
//
//   - A shared delay.RegionCache threaded through every directed
//     back-path computation. Region fingerprints are taken in region-local
//     ids, so regions untouched by an edit replay their memoized delay
//     rows even though the edit renumbered every access after it; only
//     regions whose program order, conflict orientation, or precedence
//     rows actually changed are re-searched.
//
// The synchronization skeleton (D1 candidates, the precedence fixpoint,
// lock guards) is still recomputed per call — it is global by nature and
// cheap relative to the back-path searches it feeds. Results returned
// from an Incremental must be treated as read-only: a fingerprint hit
// hands back the same *Result again.
//
// An Incremental is not safe for concurrent use.
type Incremental struct {
	opts  Options
	fp    delay.Sig
	in    delay.Sig
	inOK  bool
	res   *Result
	stats IncrStats
}

// IncrStats counts how each analysis of the session was answered, from
// cheapest to most expensive reuse tier. An edit that leaves the class
// structure unchanged should land in FullHits or InputHits (nothing
// re-derived); an edit local to a few classes should still collect
// MatrixHits/PrecHits plus region-cache hits, re-deriving only the
// touched classes' rows.
type IncrStats struct {
	Analyses   int // total Analyze calls
	FullHits   int // printed-body fingerprint hits: previous Result returned
	InputHits  int // analysis-input signature hits: only Prepare re-ran
	MatrixHits int // baseline + D1 matrices reused from the previous edit
	PrecHits   int // precedence partition reused (seed + refine skipped)
}

// NewIncremental starts an analysis session with the given options. The
// options are fixed for the session; vary analysis modes across separate
// sessions, not within one.
func NewIncremental(opts Options) *Incremental {
	opts.regionCache = delay.NewRegionCache(0)
	opts.matCache = &matrixCache{}
	if !opts.PerAccessR {
		opts.precCache = &precedenceCache{}
	}
	return &Incremental{opts: opts}
}

// matrixCache carries the baseline and D1 delay matrices across the edits
// of an Incremental session. Both are pure functions of the program-order
// graph, the conflict partition, the access kind sequence (which fixes the
// sync endpoint set), and the engine toggles — everything structureSig
// digests — so when an edit leaves those unchanged the two whole-program
// back-path computations are skipped and the previous matrices are reused
// read-only.
type matrixCache struct {
	valid    bool
	sig      delay.Sig
	baseline *delay.Set
	d1       *delay.Set
	hits     int

	// Per-call digest memo: ComputeBaseline and RefineSync both consult
	// the cache for the same Result, so the signature is computed once.
	sigRes *Result
	curSig delay.Sig
}

func (c *matrixCache) sigFor(res *Result) delay.Sig {
	if c.sigRes != res {
		c.sigRes, c.curSig = res, structureSig(res)
	}
	return c.curSig
}

// lookupBaseline returns the previous baseline matrix when the structural
// inputs match, else nil.
func (c *matrixCache) lookupBaseline(res *Result) *delay.Set {
	if c == nil || !c.valid || c.sigFor(res) != c.sig {
		return nil
	}
	return c.baseline
}

// lookupD1 is lookupBaseline for the D1 matrix, and counts a hit (the two
// matrices are reused together or not at all, so one counter suffices).
func (c *matrixCache) lookupD1(res *Result) *delay.Set {
	if c == nil || !c.valid || c.sigFor(res) != c.sig {
		return nil
	}
	c.hits++
	return c.d1
}

// store records the freshly computed matrices under the current
// structural signature.
func (c *matrixCache) store(res *Result, baseline, d1 *delay.Set) {
	if c == nil {
		return
	}
	c.sig, c.valid = c.sigFor(res), true
	c.baseline, c.d1 = baseline, d1
}

// precedenceCache carries the class-condensed precedence relation across
// the edits of an Incremental session. R is a pure function of the
// precedence inputs — the access kind/symbol sequence, the
// dominator-classified D1 pairs, and the refinement toggles — so when an
// edit leaves those unchanged (a store's value expression, say, that
// perturbs neither conflicts nor synchronization), the previous partition
// is reused read-only and the seed + refine fixpoint is skipped entirely.
type precedenceCache struct {
	valid bool
	sig   delay.Sig
	r     *Precedence
	hits  int
}

// lookup returns the cached relation when the precedence inputs of res
// match the previous edit's, else records the new signature (for the
// store that follows refinement) and returns nil.
func (c *precedenceCache) lookup(res *Result, opts Options) *Precedence {
	if c == nil {
		return nil
	}
	sig := precedenceSig(res, opts)
	if c.valid && sig == c.sig && c.r != nil {
		c.hits++
		return c.r
	}
	c.sig, c.valid, c.r = sig, true, nil
	return nil
}

func (c *precedenceCache) store(r *Precedence) {
	if c != nil {
		c.r = r
	}
}

// precedenceSig digests everything steps 3–4 read: per-access kinds and
// symbol identities (interned in first-seen order, so the digest is stable
// under symbol-table reordering), the D1 relation, the statement-domination
// structure, and the refinement toggles. The relation is digested as dense
// target rows and the domination structure as per-access (block interval,
// in-block index) tuples: equal rows and equal tuples answer every
// StmtDominates/StmtPostDominates classification of every pair
// identically, so the digest separates exactly the same inputs as the
// per-pair classification walk it replaced — without materializing
// millions of pairs per edit.
func precedenceSig(res *Result, opts Options) delay.Sig {
	fn := res.Fn
	s := delay.NewSig()
	s.Word(uint64(len(fn.Accesses)))
	s.Word(boolWord(opts.NoPostWait)<<1 | boolWord(opts.NoBarrier))
	symID := make(map[*sem.Symbol]uint64)
	for _, a := range fn.Accesses {
		id, ok := symID[a.Sym]
		if !ok {
			id = uint64(len(symID)) + 1
			symID[a.Sym] = id
		}
		s.Word(uint64(a.Kind)<<32 | id)
	}
	s.Word(1<<63 | 5)
	domSig(&s, res)
	for _, a := range fn.Accesses {
		for _, w := range res.D1.TargetRow(a.ID) {
			s.Word(w)
		}
	}
	return s
}

// domSig folds each access's statement-domination coordinates into s: the
// dominator- and postdominator-tree intervals of its block plus its
// in-block position. Accesses with equal coordinates across two programs
// classify every pair identically.
func domSig(s *delay.Sig, res *Result) {
	for _, a := range res.Fn.Accesses {
		ti, to := res.Dom.Interval(a.Blk.ID)
		pi, po := res.PDom.Interval(a.Blk.ID)
		s.Word(uint64(uint32(ti))<<32 | uint64(uint32(to)))
		s.Word(uint64(uint32(pi))<<32 | uint64(uint32(po)))
		s.Word(uint64(a.Idx))
	}
}

// structureSig digests the inputs of the whole-program back-path
// computations (baseline and D1): machine size, per-access kind and
// symbol, the program-order successor lists, the conflict partition
// (group assignment plus per-group conflict rows, which also absorb the
// induction-range disambiguation), and the engine toggles.
func structureSig(res *Result) delay.Sig {
	fn := res.Fn
	s := delay.NewSig()
	s.Word(uint64(fn.Procs))
	s.Word(uint64(len(fn.Accesses)))
	symID := make(map[*sem.Symbol]uint64)
	for _, a := range fn.Accesses {
		id, ok := symID[a.Sym]
		if !ok {
			id = uint64(len(symID)) + 1
			symID[a.Sym] = id
		}
		s.Word(uint64(a.Kind)<<32 | id)
	}
	s.Word(1<<62 | 1)
	for u := range fn.Accesses {
		s.Word(uint64(len(res.AG.G.Adj[u])))
		for _, v := range res.AG.G.Adj[u] {
			s.Word(uint64(v))
		}
	}
	s.Word(1<<62 | 2)
	for i := range fn.Accesses {
		s.Word(uint64(res.CS.GroupOf(i)))
	}
	for g := 0; g < res.CS.NumGroups(); g++ {
		for _, w := range res.CS.GroupMembers(g) {
			s.Word(w)
		}
		for _, g2 := range res.CS.GroupAdj(g) {
			s.Word(uint64(g2) | 1<<48)
		}
	}
	return s
}

// inputSig digests everything Analyze reads from a prepared function —
// the structural inputs above, the domination structure, and the def-use
// skeleton (which loads feed which accesses' expressions, the only way a
// value expression reaches the analysis). Two functions with equal
// inputSig are indistinguishable to every analysis step, even when their
// printed bodies differ (edits to constants or dead expressions), so the
// previous Result can be returned after Prepare alone: the class
// structure is certifiably unchanged and no class's rows are re-derived.
// The session's fixed Options are deliberately not digested.
func inputSig(res *Result) delay.Sig {
	fn := res.Fn
	s := delay.NewSig()
	sig := structureSig(res)
	s.Word(sig.A)
	s.Word(sig.B)
	domSig(&s, res)
	s.Word(1<<62 | 3)
	var locals []ir.LocalID
	for _, a := range fn.Accesses {
		locals = accessLocals(a, locals[:0])
		s.Word(uint64(len(locals)))
		for _, l := range locals {
			s.Word(uint64(l))
		}
	}
	for _, blk := range fn.Blocks {
		for _, st := range blk.Stmts {
			if ld, ok := st.(*ir.Load); ok {
				s.Word(uint64(ld.Acc.ID)<<32 | uint64(ld.Dst))
			}
		}
	}
	return s
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Fingerprint digests everything Analyze reads from a function: the
// printed body (statements carry their access ids, so access structure,
// control flow, and synchronization ops are all covered), the machine
// size, and the induction-variable ranges that drive array index
// disambiguation. Two functions with equal fingerprints are
// indistinguishable to the analysis.
func Fingerprint(fn *ir.Fn) delay.Sig {
	s := delay.NewSig()
	s.Word(uint64(fn.Procs))
	s.Word(uint64(len(fn.Accesses)))
	ids := make([]int, 0, len(fn.Ranges))
	for id := range fn.Ranges {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		r := fn.Ranges[ir.LocalID(id)]
		s.Word(uint64(id))
		s.Word(uint64(r.Lo))
		s.Word(uint64(r.Hi))
	}
	s.Bytes([]byte(fn.String()))
	return s
}

// Analyze analyzes the current version of the program, reusing as much of
// the previous call's work as the edit allows. Reuse is tiered: a printed-
// body fingerprint hit returns the previous Result outright; an
// analysis-input signature hit (the edit changed only text the analysis
// never reads — value constants, dead expressions) returns it after
// re-running Prepare alone; otherwise the batch pipeline runs with the
// matrix, precedence, and region caches deciding step by step which
// classes' rows actually need re-deriving.
func (inc *Incremental) Analyze(fn *ir.Fn) *Result {
	inc.stats.Analyses++
	fp := Fingerprint(fn)
	if inc.res != nil && fp == inc.fp {
		inc.stats.FullHits++
		return inc.res
	}
	res := Prepare(fn)
	in := inputSig(res)
	if inc.res != nil && inc.inOK && in == inc.in {
		inc.stats.InputHits++
		inc.fp = fp
		return inc.res
	}
	res.ComputeBaseline(inc.opts)
	res.RefineSync(inc.opts)
	inc.fp, inc.in, inc.inOK, inc.res = fp, in, true, res
	return res
}

// CacheStats reports cumulative region-cache hits and misses across the
// session — the observable measure of how much back-path work edits are
// actually reusing.
func (inc *Incremental) CacheStats() (hits, misses int) {
	return inc.opts.regionCache.Hits, inc.opts.regionCache.Misses
}

// Stats reports how each Analyze call of the session was answered, plus
// the matrix-cache hit count accumulated by the batch pipeline.
func (inc *Incremental) Stats() IncrStats {
	s := inc.stats
	s.MatrixHits = inc.opts.matCache.hits
	if inc.opts.precCache != nil {
		s.PrecHits = inc.opts.precCache.hits
	}
	return s
}
