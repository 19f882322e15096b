package graph

import "math/bits"

// Condensation is the SCC quotient of a directed graph: Comp maps each node
// to its component, components are numbered in reverse topological order
// (every edge between two components goes from a higher component index to
// a lower one, matching Tarjan's emission order), and Members lists each
// component's nodes in ascending node order. Edges counts the out-edges
// the condensation visited, each once.
//
// The regionized delay-set engine leans on one structural fact: a back-path
// for the program-order pair (a, b) is a closed mixed-graph walk through a
// and b, so both endpoints and every node of the walk lie in a single
// strongly connected component. Condensing the mixed graph therefore
// partitions the analysis exactly — cross-component pairs have no back-path,
// and same-component searches never need to leave the component.
type Condensation struct {
	Comp    []int32
	NComp   int
	Members [][]int32
	Edges   int
}

// Condense computes the SCC condensation of the graph whose out-edges are
// produced by out(u, visit). The iterator form lets callers condense graphs
// that exist only as bitset rows or CSR slices without materializing an
// adjacency list; it is invoked exactly once per node.
func Condense(n int, out func(u int, visit func(v int32))) *Condensation {
	c := &Condensation{Comp: make([]int32, n)}
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		c.Comp[i] = unvisited
	}
	// Iterative Tarjan. Out-edges of the frame's node are materialized into
	// a shared arena when the frame is pushed and released when it is
	// popped, so the arena holds the edges of the current DFS path only.
	var stack []int32
	arena := make([]int32, 0, n)
	type frame struct {
		v               int32
		start, ei, eend int32
	}
	var frames []frame
	next := int32(0)
	visit := func(w int32) { arena = append(arena, w) }
	push := func(v int32) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		start := int32(len(arena))
		out(int(v), visit)
		frames = append(frames, frame{v: v, start: start, ei: start, eend: int32(len(arena))})
		c.Edges += len(arena) - int(start)
	}
	for s := 0; s < n; s++ {
		if index[s] != unvisited {
			continue
		}
		push(int32(s))
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < f.eend {
				w := arena[f.ei]
				f.ei++
				if index[w] == unvisited {
					push(w)
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			arena = arena[:f.start]
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					c.Comp[w] = int32(c.NComp)
					if w == v {
						break
					}
				}
				c.NComp++
			}
		}
	}
	c.Members = make([][]int32, c.NComp)
	counts := make([]int32, c.NComp)
	for _, cc := range c.Comp {
		counts[cc]++
	}
	for i, cnt := range counts {
		c.Members[i] = make([]int32, 0, cnt)
	}
	for v := 0; v < n; v++ {
		cc := c.Comp[v]
		c.Members[cc] = append(c.Members[cc], int32(v))
	}
	return c
}

// CondenseMixed condenses the mixed graph over the n = len(adj) accesses:
// the program-order edges adj plus the bit relation rows (u -> v iff bit v
// of rows.Row(u)). It routes each access u through one node per row class,
// u -> K(class of u) -> every access of that class's row, so the rows are
// walked one physical row per class, not once per member. Routing keeps
// reachability between accesses (u reaches v through K exactly when v is
// in u's row), so the components restricted to accesses are those of the
// per-access graph. Components that hold no access are dropped and the
// rest renumbered in order, so Comp, Members and NComp describe accesses
// only.
func CondenseMixed(adj [][]int, rows *ClassRows) *Condensation {
	n := len(adj)
	c := Condense(n+len(rows.ClassRow), func(u int, visit func(v int32)) {
		if u < n {
			for _, v := range adj[u] {
				visit(int32(v))
			}
			visit(int32(n) + rows.ClassOf[u])
			return
		}
		for wi, wd := range rows.ClassRow[u-n] {
			for ; wd != 0; wd &= wd - 1 {
				visit(int32(wi<<6 + bits.TrailingZeros64(wd)))
			}
		}
	})
	// Members are ascending, so a component's accesses are a prefix and a
	// component holds an access iff its first member is one.
	renum := make([]int32, c.NComp)
	members := c.Members[:0]
	for cc, ms := range c.Members {
		renum[cc] = int32(len(members))
		if ms[0] >= int32(n) {
			continue
		}
		k := len(ms)
		for ms[k-1] >= int32(n) {
			k--
		}
		members = append(members, ms[:k])
	}
	c.Comp = c.Comp[:n]
	for u, cc := range c.Comp {
		c.Comp[u] = renum[cc]
	}
	c.Members, c.NComp = members, len(members)
	return c
}

// ReachRows computes the length->=1 reachability relation of the condensed
// graph: row(u) bit v set iff some path of at least one edge leads u to v.
// All members of one component share row content, so the result keeps one
// physical row per component, classed by Comp (reachability is a congruence
// on components on both sides, as ClassRows requires). The condensation
// DAG is processed in topological order (ascending component index =
// reverse Tarjan order visits successors first), so the whole closure costs
// O(E_dag * n/64) word operations and one row per component — not the
// O(n*E) of per-source BFS, nor a row per node.
func (c *Condensation) ReachRows(n int, out func(u int, visit func(v int32))) *ClassRows {
	// Condensation DAG, deduplicated with an epoch-stamped mark, and the
	// cyclic components: those with an edge inside, which every component
	// of more than one node has and a single node has only as a self-edge.
	dag := make([][]int32, c.NComp)
	mark := make([]int32, c.NComp)
	cyclic := make([]bool, c.NComp)
	for i := range mark {
		mark[i] = -1
	}
	var cu int32
	edge := func(w int32) {
		switch cw := c.Comp[w]; {
		case cw == cu:
			cyclic[cu] = true
		case mark[cw] != cu:
			mark[cw] = cu
			dag[cu] = append(dag[cu], cw)
		}
	}
	for u := 0; u < n; u++ {
		cu = c.Comp[u]
		out(u, edge)
	}
	w := WordsFor(n)
	compRow := make([][]uint64, c.NComp)
	// Ascending component index: successors of a component always carry a
	// smaller index, so their rows are complete when the component is
	// processed.
	for cc := 0; cc < c.NComp; cc++ {
		row := make([]uint64, w)
		if cyclic[cc] {
			for _, v := range c.Members[cc] {
				BitSet(row, int(v))
			}
		}
		for _, sc := range dag[cc] {
			// Transitive skip: the invariant "row holds a member bit of sc
			// => row already holds Members[sc] and compRow[sc]" follows by
			// induction on ascending component order, since bits only enter
			// a row paired with their component's full closure. Direct
			// edges shadowed by longer paths then cost one BitGet instead
			// of a row OR, which on program-order-shaped inputs removes
			// almost all of the merge work.
			if BitGet(row, int(c.Members[sc][0])) {
				continue
			}
			for _, v := range c.Members[sc] {
				BitSet(row, int(v))
			}
			sr := compRow[sc]
			for i := range row {
				row[i] |= sr[i]
			}
		}
		compRow[cc] = row
	}
	return NewClassRows(c.Comp, compRow)
}

// Transpose returns the transposed matrix (see TransposeInPlace).
func (m *BitMatrix) Transpose() *BitMatrix {
	t := &BitMatrix{N: m.N, W: m.W, b: append([]uint64(nil), m.b...)}
	t.TransposeInPlace()
	return t
}

// TransposeInPlace transposes the matrix in its own storage with a 64x64
// block transpose: each word-aligned block is flipped with the classical
// masked-swap network and swapped with its mirror block, so the cost is
// O(n^2/64 * log 64) word operations instead of n^2 single-bit probes,
// and no second matrix is allocated.
func (m *BitMatrix) TransposeInPlace() {
	var a, b [64]uint64
	for bi := 0; bi < m.N; bi += 64 {
		for bj := bi; bj < m.N; bj += 64 {
			m.loadBlock(&a, bi, bj)
			transpose64(&a)
			if bj == bi {
				m.storeBlock(&a, bi, bi)
				continue
			}
			m.loadBlock(&b, bj, bi)
			transpose64(&b)
			m.storeBlock(&a, bj, bi)
			m.storeBlock(&b, bi, bj)
		}
	}
}

// loadBlock reads the 64x64 block at rows r0.., word column c0/64 into
// blk, zero past the last row.
func (m *BitMatrix) loadBlock(blk *[64]uint64, r0, c0 int) {
	for r := range blk {
		blk[r] = 0
		if r0+r < m.N {
			blk[r] = m.b[(r0+r)*m.W+c0>>6]
		}
	}
}

// storeBlock writes blk back to the block at rows r0.., word column c0/64.
func (m *BitMatrix) storeBlock(blk *[64]uint64, r0, c0 int) {
	for r := 0; r < 64 && r0+r < m.N; r++ {
		m.b[(r0+r)*m.W+c0>>6] = blk[r]
	}
}

// transpose64 transposes a 64x64 bit block in place (Hacker's Delight
// masked-swap network: exchange sub-blocks of width 32, 16, ..., 1).
func transpose64(a *[64]uint64) {
	mask := uint64(0x00000000FFFFFFFF)
	for shift := 32; shift > 0; shift >>= 1 {
		for i := 0; i < 64; i = (i + shift + 1) &^ shift {
			x := (a[i] >> uint(shift)) ^ a[i+shift]
			x &= mask
			a[i] ^= x << uint(shift)
			a[i+shift] ^= x
		}
		mask ^= mask << uint(shift>>1)
	}
}
