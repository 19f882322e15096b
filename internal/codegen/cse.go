package codegen

import (
	"slices"

	"repro/internal/ir"
	"repro/internal/target"
)

// cse applies the communication-eliminating transformations of section 7
// / Figure 11 in one forward walk over the target CFG:
//
//   - value reuse: a get of an address whose value this processor already
//     holds becomes a local copy of the holding local, or nothing when the
//     value already sits in the get's destination;
//   - value propagation: a get of an address this processor just wrote
//     forwards the written value locally;
//   - write-back: a put overwritten by a later put to the same address
//     (with no possible observer in between) is deleted.
//
// All three move an access ("as long as it is legal to move the second get
// up to the point of the first one"), so all three read one availability
// list and lose entries by one rule, kill in effect.go. A forward
// must-availability dataflow (availFixpoint) gives each block's entry
// list, so fetched values are reused across blocks and around loops — the
// Figure 9/10 cases: after a barrier makes an array read-only for a
// phase, the phase's loop re-reads become one fetch, and post-wait-
// completed updates can be cached by later readers. A put's entry lives
// within its block: write-back deletes the earlier put from the block's
// own text.
func (g *Generator) cse() {
	fl := g.availFixpoint()
	g.reportWork()
	// Rewrite: walk each block from its entry list with the same transfer,
	// now replacing what the list makes redundant. A block no path
	// reaches starts from an empty list.
	for bi, b := range g.prog.Blocks {
		g.transfer(fl.in[bi], b, true)
	}
}

// transfer runs the availability transfer function over blk from the
// entry list in: each statement kills what it invalidates, then a get or
// put records the value it leaves in a local. With rewrite set it also
// applies the rewrites the list allows. A get whose address is listed is
// forwarded from a put entry whose source can be re-evaluated, or else
// reused from a get entry; either way the copy issues no access. A put
// deletes a listed put to its address (the kill then retires that entry:
// the new put writes the same address). The result, without the block's
// put entries, lives in a buffer the next call reuses: a caller that keeps
// it copies it.
func (g *Generator) transfer(in []availEntry, blk *target.Block, rewrite bool) []availEntry {
	l := append(g.scanBuf[:0], in...)
	var out []target.Stmt
	if rewrite {
		out = make([]target.Stmt, 0, len(blk.Stmts))
	}
	for _, s := range blk.Stmts {
		e := effectOf(s)
		emit := s
		var add availEntry // the value s leaves in a local; acc nil if none
		switch s := s.(type) {
		case *target.Get:
			add = availEntry{acc: s.Acc, dst: s.Dst}
			x, ok := l.lookup(s.Acc)
			if !ok || x.put != nil && !forwardable(x.put.Src) {
				break
			}
			var src ir.Expr
			switch {
			case x.put != nil: // a forwarded value is held by no local of its own
				src, add.acc = x.put.Src, nil
			case x.dst != s.Dst:
				src = &ir.LocalRef{ID: x.dst, T: g.fn.Locals[x.dst].Type}
			}
			e.acc, emit = nil, nil
			if src != nil {
				emit = &target.Wrap{S: &ir.Assign{Dst: s.Dst, Src: src}}
			}
			if rewrite {
				g.infos[s.Acc.ID] = nil
				if x.put != nil {
					g.stats.GetsForwarded++
				} else {
					g.stats.GetsCached++
				}
			}
		case *target.Put:
			if x, ok := l.lookup(s.Acc); ok && x.put != nil && rewrite {
				i := slices.Index(out, target.Stmt(x.put))
				out = slices.Delete(out, i, i+1)
				g.infos[x.acc.ID] = nil
				g.stats.PutsEliminated++
			}
			add = availEntry{acc: s.Acc, dst: noLocal, put: s}
			if lr, ok := s.Src.(*ir.LocalRef); ok {
				add.dst = lr.ID
			}
		}
		l = g.kill(l, e)
		if add.acc != nil {
			l = append(l, add)
		}
		if rewrite && emit != nil {
			out = append(out, emit)
		}
	}
	l = slices.DeleteFunc(l, func(x availEntry) bool { return x.put != nil })
	g.scanBuf = l
	if rewrite {
		blk.Stmts = out
	}
	return l
}

// forwardable reports whether an expression can be re-evaluated later with
// the same meaning without capturing it (constants and locals, which
// invalidation tracks).
func forwardable(e ir.Expr) bool {
	switch e.(type) {
	case *ir.Const, *ir.LocalRef:
		return true
	}
	return false
}
