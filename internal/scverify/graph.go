package scverify

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/interp"
	"repro/internal/sem"
)

// EdgeKind labels why one operation must precede another in any
// sequentially consistent explanation of the execution.
type EdgeKind uint8

// Edge kinds.
const (
	// EdgePO: program order on one processor.
	EdgePO EdgeKind = iota
	// EdgeConflict: the memory system applied the source before the
	// target at a common location, and at least one of the two writes.
	EdgeConflict
	// EdgeSync: a synchronization observation (wait saw the post,
	// lock grant saw the unlock).
	EdgeSync
	// EdgeBarrier: barrier episode ordering (arrivals before releases).
	EdgeBarrier
)

// String names the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case EdgePO:
		return "po"
	case EdgeConflict:
		return "conflict"
	case EdgeSync:
		return "sync"
	case EdgeBarrier:
		return "barrier"
	default:
		return fmt.Sprintf("EdgeKind(%d)", int(k))
	}
}

type edge struct {
	to   int32
	kind EdgeKind
}

// checker builds and searches the happens-before graph of a trace: nodes
// are the trace's operations plus one virtual node per barrier episode
// (node ids len(Ops)+e), which turns the quadratic
// arrivals-before-releases relation into a star. Every buffer is kept
// between calls of check, so a caller checking many traces of one program
// (Verify's schedule grid) allocates for the first and reuses for the rest;
// the zero value is ready to use.
type checker struct {
	tr *Trace

	// Edges are collected in insertion order (from[i] -> edges[i]) and then
	// bucketed by source node into adj, node n's edges being
	// adj[start[n]:start[n+1]] in insertion order — the order findCycle
	// walks them in, and so part of which cycle a violation reports.
	from  []int32
	edges []edge
	start []int32
	fill  []int32 // per node: the next free slot of its bucket
	adj   []edge

	// Conflict-order state per location: locID names a slot of locs.
	locID map[locKey]int32
	locs  []locState

	// programOrder scratch.
	order, natives, slots []int

	// findCycle scratch.
	color      []byte
	parent     []int32
	parentKind []EdgeKind
	stack      []dfsFrame
}

type locKey struct {
	sym *sem.Symbol
	idx int64
}

type locState struct {
	lastWrite int
	reads     []int
}

type dfsFrame struct {
	node int32
	next int32
}

func (g *checker) addEdge(from, to int, kind EdgeKind) {
	if from == to || from < 0 || to < 0 {
		return
	}
	g.from = append(g.from, int32(from))
	g.edges = append(g.edges, edge{to: int32(to), kind: kind})
}

// inGraph reports whether the op participates in the SC check. sync_ctr
// waits are local control flow, not shared accesses: their ordering force
// is temporal (they delay later issues), which the other edges observe.
func inGraph(op *Op) bool { return op.Kind != interp.OpSyncCtr }

// build assembles the happens-before graph of tr:
//
//   - program order: per processor, per block visit, operations native to
//     the visited block are re-sorted to source statement order (undoing
//     intra-block initiation hoisting); operations issued from another
//     block (cross-block motion, CSE levels) keep their issue slot. The
//     per-processor sequence is then chained.
//   - conflict order: walking the memory application order per location,
//     write->read for the write a read observed, read->write for reads
//     that missed a later write, write->write in application order.
//     Read-read pairs commute and get no edge.
//   - sync observations and barrier episodes as recorded.
func (g *checker) build(tr *Trace) {
	g.tr = tr
	g.from, g.edges = g.from[:0], g.edges[:0]

	// Program order.
	for _, dyns := range tr.ByProc {
		prev := -1
		for _, d := range g.programOrder(dyns) {
			if !inGraph(&tr.Ops[d]) {
				continue
			}
			if prev >= 0 {
				g.addEdge(prev, d, EdgePO)
			}
			prev = d
		}
	}

	// Conflict order per location, from the memory application order.
	if g.locID == nil {
		g.locID = make(map[locKey]int32)
	}
	clear(g.locID)
	g.locs = g.locs[:0]
	for _, d := range tr.MemOrder {
		op := &tr.Ops[d]
		k := locKey{sym: op.Sym, idx: op.Idx}
		id, ok := g.locID[k]
		if !ok {
			id = int32(len(g.locs))
			g.locID[k] = id
			if len(g.locs) < cap(g.locs) {
				g.locs = g.locs[:id+1]
				g.locs[id] = locState{lastWrite: -1, reads: g.locs[id].reads[:0]}
			} else {
				g.locs = append(g.locs, locState{lastWrite: -1})
			}
		}
		st := &g.locs[id]
		if st.lastWrite >= 0 {
			g.addEdge(st.lastWrite, d, EdgeConflict)
		}
		if op.Write {
			for _, r := range st.reads {
				g.addEdge(r, d, EdgeConflict)
			}
			st.lastWrite = d
			st.reads = st.reads[:0]
		} else {
			st.reads = append(st.reads, d)
		}
	}

	// Synchronization observations.
	for _, ob := range tr.Observes {
		g.addEdge(ob.from, ob.dyn, EdgeSync)
	}

	// Barrier episodes through virtual nodes.
	for d, ep := range tr.Episode {
		if ep < 0 {
			continue
		}
		v := len(tr.Ops) + ep
		switch tr.Ops[d].Kind {
		case interp.OpBarrierArrive:
			g.addEdge(d, v, EdgeBarrier)
		case interp.OpBarrierRelease:
			g.addEdge(v, d, EdgeBarrier)
		}
	}

	// Bucket the edges by source node, keeping each node's insertion order.
	n := len(tr.Ops) + tr.Episodes
	g.start = resize(g.start, n+1)
	clear(g.start)
	for _, f := range g.from {
		g.start[f+1]++
	}
	for i := 0; i < n; i++ {
		g.start[i+1] += g.start[i]
	}
	g.adj = resize(g.adj, len(g.edges))
	g.fill = resize(g.fill, n)
	copy(g.fill, g.start)
	for i, f := range g.from {
		g.adj[g.fill[f]] = g.edges[i]
		g.fill[f]++
	}
}

// resize returns s with length n, reusing its backing array when that is
// large enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]T, n)
}

// programOrder recovers the source program order of one processor's
// issued operations: within each block visit, ops whose access lives in
// the visited block are permuted among their own issue slots into source
// statement order; foreign ops (moved across blocks by the optimizer)
// stay at their issue position, a deliberate leniency. The result is valid
// until the next call.
func (g *checker) programOrder(dyns []int) []int {
	tr := g.tr
	g.order = append(g.order[:0], dyns...)
	out := g.order
	for i := 0; i < len(out); {
		j := i
		visit := tr.Ops[out[i]].Visit
		for j < len(out) && tr.Ops[out[j]].Visit == visit {
			j++
		}
		g.sortVisit(out[i:j])
		i = j
	}
	return out
}

// sortVisit permutes, in place, the native ops of one block visit into
// source order, leaving foreign ops where they are.
func (g *checker) sortVisit(dyns []int) {
	tr := g.tr
	blk := tr.Ops[dyns[0]].VisitBlk
	natives, slots := g.natives[:0], g.slots[:0]
	sorted := true
	for i, d := range dyns {
		if tr.Ops[d].SrcBlk == blk {
			if n := len(natives); n > 0 && tr.Ops[d].SrcIdx < tr.Ops[natives[n-1]].SrcIdx {
				sorted = false
			}
			natives = append(natives, d)
			slots = append(slots, i)
		}
	}
	g.natives, g.slots = natives, slots
	if sorted {
		return
	}
	sort.SliceStable(natives, func(i, j int) bool {
		return tr.Ops[natives[i]].SrcIdx < tr.Ops[natives[j]].SrcIdx
	})
	for i, slot := range slots {
		dyns[slot] = natives[i]
	}
}

// findCycle searches the graph for a cycle with an iterative three-color
// DFS and returns it as a node sequence (first node repeated at the end),
// with the edge kinds taken along, or nil if the graph is acyclic.
func (g *checker) findCycle() ([]int, []EdgeKind) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	n := len(g.start) - 1
	g.color = resize(g.color, n)
	clear(g.color)
	g.parent = resize(g.parent, n)
	g.parentKind = resize(g.parentKind, n)
	color, parent, parentKind := g.color, g.parent, g.parentKind
	for start := 0; start < n; start++ {
		if color[start] != white {
			continue
		}
		stack := append(g.stack[:0], dfsFrame{node: int32(start)})
		color[start] = gray
		parent[start] = -1
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if g.start[f.node]+f.next >= g.start[f.node+1] {
				color[f.node] = black
				stack = stack[:len(stack)-1]
				continue
			}
			e := g.adj[g.start[f.node]+f.next]
			f.next++
			switch color[e.to] {
			case white:
				color[e.to] = gray
				parent[e.to] = f.node
				parentKind[e.to] = e.kind
				stack = append(stack, dfsFrame{node: e.to})
			case gray:
				// Back edge: unwind the parent chain from f.node to e.to.
				var nodes []int
				var kinds []EdgeKind
				nodes = append(nodes, int(e.to))
				kinds = append(kinds, e.kind)
				for n := f.node; n != e.to; n = parent[n] {
					nodes = append(nodes, int(n))
					kinds = append(kinds, parentKind[n])
				}
				// Reverse into forward order and close the loop.
				for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
					nodes[i], nodes[j] = nodes[j], nodes[i]
				}
				for i, j := 1, len(kinds)-1; i < j; i, j = i+1, j-1 {
					kinds[i], kinds[j] = kinds[j], kinds[i]
				}
				g.stack = stack
				return append(nodes, nodes[0]), kinds
			}
		}
		g.stack = stack
	}
	return nil, nil
}

// check builds the happens-before graph for the trace, on the checker's
// buffers, and reports a violation if the orderings do not embed into any
// single total order, i.e. the graph has a cycle. A nil result means the
// execution is explainable by a sequentially consistent interleaving. The
// Violation holds rendered strings only, nothing of tr or of the checker,
// so both may be recycled while it is kept.
func (g *checker) check(tr *Trace) *Violation {
	g.build(tr)
	nodes, kinds := g.findCycle()
	if nodes == nil {
		return nil
	}
	v := &Violation{}
	for i, n := range nodes {
		if n >= len(tr.Ops) {
			v.Cycle = append(v.Cycle, fmt.Sprintf("barrier episode %d", n-len(tr.Ops)))
		} else {
			v.Cycle = append(v.Cycle, tr.Ops[n].String())
		}
		if i < len(kinds) {
			v.Edges = append(v.Edges, kinds[i])
		}
	}
	return v
}

// Violation describes a detected non-SC execution: a cycle in the
// happens-before graph, rendered operation by operation.
type Violation struct {
	Schedule Schedule
	Cycle    []string   // ops along the cycle; first repeated at the end
	Edges    []EdgeKind // Edges[i] connects Cycle[i] -> Cycle[i+1]
}

// String renders the violation as a multi-line cycle listing.
func (v *Violation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "SC violation under %v: ordering cycle of %d ops\n", v.Schedule, len(v.Cycle)-1)
	for i, op := range v.Cycle {
		if i == len(v.Cycle)-1 {
			fmt.Fprintf(&sb, "  %s\n", op)
			break
		}
		fmt.Fprintf(&sb, "  %s\n    --%s-->\n", op, v.Edges[i])
	}
	return sb.String()
}
