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
	treeReady    bool
	ttin, ttout  []int32
	tHead, tNext []int32
	stack        []int32
}

// NewFlowDom returns a scratch engine for the given graph.
func NewFlowDom(csr *CSR) *FlowDom {
	n := csr.N
	return &FlowDom{
		csr: csr, n: n,
		mark:   make([]int32, n),
		parent: make([]int32, n),
		ttin:   make([]int32, n+1), ttout: make([]int32, n+1),
		tHead: make([]int32, n+1), tNext: make([]int32, n+1),
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

// buildTree numbers the BFS first-visit tree with entry/exit intervals.
func (f *FlowDom) buildTree() {
	f.treeReady = true
	root := int32(f.n)
	f.tHead[root] = -1
	for _, v := range f.order {
		f.tHead[v] = -1
	}
	for i := len(f.order) - 1; i >= 0; i-- {
		v := f.order[i]
		p := f.parent[v]
		f.tNext[v] = f.tHead[p]
		f.tHead[p] = v
	}
	t := int32(0)
	f.stack = append(f.stack[:0], root)
	for len(f.stack) > 0 {
		v := f.stack[len(f.stack)-1]
		f.stack = f.stack[:len(f.stack)-1]
		if v < 0 {
			f.ttout[-(v + 1)] = t
			t++
			continue
		}
		f.ttin[v] = t
		t++
		f.stack = append(f.stack, -(v + 1))
		for c := f.tHead[v]; c != -1; c = f.tNext[c] {
			f.stack = append(f.stack, c)
		}
	}
}

// TreeTimes exposes the first-visit tree's DFS interval numbering for the
// current source, building the tree on first use after a Reach. Entries
// are meaningful only for visited nodes. Intervals nest, so y lies in
// subtree(a) iff tin[a] <= tin[y] && tin[y] <= tout[a]; the entry time
// alone orders witnesses, which lets callers reduce "is any witness
// outside subtree(a)" to two comparisons against precomputed extremes.
func (f *FlowDom) TreeTimes() (tin, tout []int32) {
	if !f.treeReady {
		f.buildTree()
	}
	return f.ttin, f.ttout
}

// Visited reports whether v was reached for the current source.
func (f *FlowDom) Visited(v int) bool { return f.mark[v] == f.epoch }
