package scverify

import (
	"fmt"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/sem"
)

// Op is one dynamic operation recorded from a simulated execution. Its
// index in Trace.Ops is its dyn id: dyn ids are dense and process-wide,
// assigned in issue order.
type Op struct {
	Proc int
	Kind interp.OpKind

	// Static identity of the access this operation executes.
	AccID  int         // ir access id; -1 for sync_ctr
	SrcBlk int         // block the access occupies in the source IR; -1 if none
	SrcIdx int         // statement index within SrcBlk
	Sym    *sem.Symbol // accessed symbol; nil for barriers and sync_ctr
	Idx    int64       // evaluated element index (counter number for sync_ctr)

	// Dynamic placement.
	Visit    int     // ordinal of the issuing block visit on Proc
	VisitBlk int     // target block id of that visit
	Issue    float64 // simulated issue time
	Eff      float64 // memory sample/apply time (data ops with HasEff)
	Write    bool
	HasEff   bool
}

// String renders the op for violation reports, e.g.
// "p1 put S0[0] a4 @issue 12.0 eff 38.5".
func (o *Op) String() string {
	name := ""
	if o.Sym != nil {
		name = " " + o.Sym.Name
		if o.Kind.IsData() {
			name = fmt.Sprintf(" %s[%d]", o.Sym.Name, o.Idx)
		}
	}
	s := fmt.Sprintf("p%d %s%s a%d @issue %.1f", o.Proc, o.Kind, name, o.AccID, o.Issue)
	if o.HasEff {
		s += fmt.Sprintf(" eff %.1f", o.Eff)
	}
	return s
}

type observation struct{ dyn, from int }

// Trace is the happens-before evidence collected from one run: the ops,
// their per-processor issue order, the global memory application order,
// the synchronization observations, and the barrier episode structure.
type Trace struct {
	Ops      []Op
	ByProc   [][]int // dyn ids per processor, in issue order
	MemOrder []int   // dyn ids in memory sample/apply order
	Observes []observation
	Episode  []int // per dyn: barrier episode, -1 otherwise
	Episodes int
}

// Collector implements interp.Tap, accumulating a Trace.
type Collector struct {
	tr       Trace
	curVisit []int // per proc: current visit ordinal
	curBlk   []int // per proc: current target block id
}

// Reset empties the collector for another run, keeping every buffer's
// capacity. The Trace returned earlier is the collector's own and is
// overwritten by the next run.
func (c *Collector) Reset() {
	tr := &c.tr
	tr.Ops, tr.MemOrder, tr.Observes, tr.Episode = tr.Ops[:0], tr.MemOrder[:0], tr.Observes[:0], tr.Episode[:0]
	tr.ByProc, tr.Episodes = tr.ByProc[:0], 0
	c.curVisit, c.curBlk = c.curVisit[:0], c.curBlk[:0]
}

// Trace returns the collected trace.
func (c *Collector) Trace() *Trace { return &c.tr }

func (c *Collector) growProc(proc int) {
	for len(c.curVisit) <= proc {
		c.curVisit = append(c.curVisit, -1)
		c.curBlk = append(c.curBlk, -1)
		// A processor list an earlier run grew is reused, emptied.
		if n := len(c.tr.ByProc); n < cap(c.tr.ByProc) {
			c.tr.ByProc = c.tr.ByProc[:n+1]
			c.tr.ByProc[n] = c.tr.ByProc[n][:0]
		} else {
			c.tr.ByProc = append(c.tr.ByProc, nil)
		}
	}
}

// Block records a block-visit boundary on proc.
func (c *Collector) Block(proc, blk int) {
	c.growProc(proc)
	c.curVisit[proc]++
	c.curBlk[proc] = blk
}

// Issue records a dynamic operation.
func (c *Collector) Issue(dyn, proc int, kind interp.OpKind, acc *ir.Access, idx int64, t float64) {
	c.growProc(proc)
	op := Op{
		Proc:     proc,
		Kind:     kind,
		AccID:    -1,
		SrcBlk:   -1,
		Idx:      idx,
		Visit:    c.curVisit[proc],
		VisitBlk: c.curBlk[proc],
		Issue:    t,
		Write:    kind.IsWrite(),
	}
	if acc != nil {
		op.AccID = acc.ID
		op.Sym = acc.Sym
		if acc.Blk != nil {
			op.SrcBlk = acc.Blk.ID
			op.SrcIdx = acc.Idx
		}
	}
	// dyn ids are dense in issue order, so append keeps Ops[dyn] == op.
	c.tr.Ops = append(c.tr.Ops, op)
	c.tr.Episode = append(c.tr.Episode, -1)
	c.tr.ByProc[proc] = append(c.tr.ByProc[proc], dyn)
}

// MemEffect records the memory system sampling (read) or applying (write)
// operation dyn; call order across the run is the application order.
func (c *Collector) MemEffect(dyn int, write bool, _ ir.Value, t float64) {
	if dyn < 0 || dyn >= len(c.tr.Ops) {
		return
	}
	op := &c.tr.Ops[dyn]
	op.Eff, op.Write, op.HasEff = t, write, true
	c.tr.MemOrder = append(c.tr.MemOrder, dyn)
}

// Observe records a cross-processor synchronization observation
// (wait observed post, lock grant observed unlock).
func (c *Collector) Observe(dyn, from int) {
	if from < 0 || dyn < 0 {
		return
	}
	c.tr.Observes = append(c.tr.Observes, observation{dyn: dyn, from: from})
}

// Episode assigns a barrier arrival or release to its episode.
func (c *Collector) Episode(dyn, ep int) {
	if dyn < 0 || dyn >= len(c.tr.Episode) {
		return
	}
	c.tr.Episode[dyn] = ep
	if ep+1 > c.tr.Episodes {
		c.tr.Episodes = ep + 1
	}
}
