package graph

// FlowDom runs the batched per-source sweep of the hub solver over a CSR
// graph and keeps its first-visit tree. A call to Reach(seeds) runs a BFS
// of the virtual flowgraph whose root has an edge to every seed. The tree
// then screens "y reachable from the seeds without touching a": when y
// lies outside a's subtree (TreeTimes), y's first-visit path avoids a — an
// exact positive. The converse does not hold (some other path may avoid
// a), so callers follow an inconclusive screen with one exact
// avoid-search.
//
// The struct is a reusable scratch: one allocation amortized over many
// sources. It is not safe for concurrent use; give each worker its own.
type FlowDom struct {
	csr *CSR
	n   int // node count; the virtual root has id n

	epoch  int32
	mark   []int32 // mark[v] == epoch: v visited for the current source
	order  []int32 // visited nodes in BFS discovery order
	parent []int32 // BFS-tree parent of each visited node (root for seeds)

	// First-visit-tree state, built lazily by TreeTimes.
	treeReady   bool
	ttin, ttout []int32
}

// NewFlowDom returns a scratch engine for the given graph.
func NewFlowDom(csr *CSR) *FlowDom {
	n := csr.N
	return &FlowDom{
		csr: csr, n: n,
		mark:   make([]int32, n),
		parent: make([]int32, n),
		ttin:   make([]int32, n+1), ttout: make([]int32, n+1),
	}
}

// Reach prepares queries for one source: a BFS from seeds.
func (f *FlowDom) Reach(seeds []int32) {
	f.epoch++
	f.order = f.order[:0]
	f.treeReady = false
	root := int32(f.n)
	for _, s := range seeds {
		if f.mark[s] == f.epoch {
			continue
		}
		f.mark[s] = f.epoch
		f.parent[s] = root
		f.order = append(f.order, s)
	}
	for i := 0; i < len(f.order); i++ {
		u := f.order[i]
		for _, v := range f.csr.Out(int(u)) {
			if f.mark[v] == f.epoch {
				continue
			}
			f.mark[v] = f.epoch
			f.parent[v] = u
			f.order = append(f.order, v)
		}
	}
}

// Order returns the visited nodes of the current source in BFS discovery
// order, as a shared slice valid until the next Reach.
func (f *FlowDom) Order() []int32 { return f.order }

// buildTree numbers the BFS first-visit tree with entry/exit intervals:
// the numbering of a depth-first walk from the root that enters each
// node's children in reverse discovery order, one tick per entry and one
// per exit, so a subtree of k nodes spans 2k ticks. No walk is needed.
// Every node is discovered after its parent, so one reverse pass over the
// discovery order finishes each subtree's size before its parent reads it,
// and meets a node's children in the walk's order: a child's entry lies
// 1 + 2·(sizes of the siblings met before it) ticks after its parent's,
// which is the parent's size so far. One forward pass then adds the
// parent's entry time. ttin holds the offset and ttout the size until
// that pass overwrites them.
func (f *FlowDom) buildTree() {
	f.treeReady = true
	root := int32(f.n)
	size, off := f.ttout, f.ttin
	size[root] = 1
	for _, v := range f.order {
		size[v] = 1
	}
	for i := len(f.order) - 1; i >= 0; i-- {
		v := f.order[i]
		p := f.parent[v]
		off[v] = 2*size[p] - 1
		size[p] += size[v]
	}
	f.ttin[root] = 0
	f.ttout[root] = 2*size[root] - 1
	for _, v := range f.order {
		f.ttin[v] += f.ttin[f.parent[v]]
		f.ttout[v] = f.ttin[v] + 2*size[v] - 1
	}
}

// TreeTimes exposes the first-visit tree of the current source — its DFS
// interval numbering and each node's parent (the virtual root N for a
// seed) — building the numbering on first use after a Reach. Entries are
// meaningful only for visited nodes. Intervals nest, so y lies in
// subtree(a) iff tin[a] <= tin[y] && tin[y] <= tout[a]; the entry time
// alone orders witnesses, which lets callers reduce "is any witness
// outside subtree(a)" to two comparisons against precomputed extremes.
func (f *FlowDom) TreeTimes() (tin, tout, parent []int32) {
	if !f.treeReady {
		f.buildTree()
	}
	return f.ttin, f.ttout, f.parent
}

// Visited reports whether v was reached for the current source.
func (f *FlowDom) Visited(v int) bool { return f.mark[v] == f.epoch }
