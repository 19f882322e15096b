package ir

import "slices"

// Dominator-tree construction (Cooper–Harvey–Kennedy iterative algorithm).
// The synchronization analysis of section 5.1 needs "a1 dominates b1"
// queries on statements; DomTree supplies block domination, and
// (*DomTree).StmtDominates lifts it to access statements using in-block
// order.

// domTree is the dominator tree of a graph over nodes 0..n-1 seen from a
// root, by Cooper–Harvey–Kennedy. The same code builds both trees: the
// dominator tree walks the CFG from the entry, the postdominator tree the
// reverse CFG from the virtual exit.
type domTree struct {
	idom []int // immediate dominator; the root maps to itself, -1 if unreachable
	num  []int // reverse-postorder number; -1 if unreachable
	tin  []int // tree DFS entry time, for O(1) ancestor queries
	tout []int // tree DFS exit time
}

// newDomTree computes the dominator tree of the graph with the given
// successor and predecessor lists, seen from root.
func newDomTree(root int, succs, preds adjacency) domTree {
	n := len(succs.off) - 1
	t := domTree{idom: make([]int, n), num: make([]int, n)}
	for i := range t.idom {
		t.idom[i] = -1
		t.num[i] = -1
	}
	// Postorder DFS from the root, then reversed.
	visited := make([]bool, n)
	rpo := make([]int, 0, n)
	var dfs func(v int)
	dfs = func(v int) {
		visited[v] = true
		for _, w := range succs.of(v) {
			if !visited[w] {
				dfs(w)
			}
		}
		rpo = append(rpo, v)
	}
	dfs(root)
	slices.Reverse(rpo)
	for i, v := range rpo {
		t.num[v] = i
	}
	t.idom[root] = root
	for changed := true; changed; {
		changed = false
		for _, v := range rpo[1:] { // rpo[0] is the root
			newIdom := -1
			for _, p := range preds.of(v) {
				if t.idom[p] == -1 {
					continue // unprocessed or unreachable
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = t.intersect(p, newIdom)
				}
			}
			if newIdom != -1 && t.idom[v] != newIdom {
				t.idom[v] = newIdom
				changed = true
			}
		}
	}
	t.tin, t.tout = domIntervals(root, t.idom, t.num)
	return t
}

func (t *domTree) intersect(b1, b2 int) int {
	for b1 != b2 {
		for t.num[b1] > t.num[b2] {
			b1 = t.idom[b1]
		}
		for t.num[b2] > t.num[b1] {
			b2 = t.idom[b2]
		}
	}
	return b1
}

// dominates reports whether a dominates b (reflexively); a node the root
// cannot reach dominates nothing and is dominated by nothing.
func (t *domTree) dominates(a, b int) bool {
	if t.num[a] == -1 || t.num[b] == -1 {
		return false
	}
	return t.tin[a] <= t.tin[b] && t.tout[b] <= t.tout[a]
}

// adjacency lists each node's neighbours in one array: node v's are
// to[off[v]:off[v+1]].
type adjacency struct{ off, to []int }

func (a adjacency) of(v int) []int { return a.to[a.off[v]:a.off[v+1]] }

// cfg returns fn's successor and predecessor lists by block ID over one
// more node, the virtual exit len(fn.Blocks), which every Ret block
// precedes.
func cfg(fn *Fn) (succs, preds adjacency) {
	exit := len(fn.Blocks)
	edges := func(f func(from, to int)) {
		for _, b := range fn.Blocks {
			switch t := b.Term.(type) {
			case *Jump:
				f(b.ID, t.To.ID)
			case *Branch:
				f(b.ID, t.Then.ID)
				if t.Else != t.Then {
					f(b.ID, t.Else.ID)
				}
			case *Ret:
				f(b.ID, exit)
			}
		}
	}
	// Count each node's edges into off[v+1] and sum, so v's list starts at
	// off[v]; filling advances off[v] to where v+1's list starts, and one
	// shift puts the starts back.
	succs.off, preds.off = make([]int, exit+2), make([]int, exit+2)
	m := 0
	edges(func(from, to int) { succs.off[from+1]++; preds.off[to+1]++; m++ })
	for v := 1; v <= exit+1; v++ {
		succs.off[v] += succs.off[v-1]
		preds.off[v] += preds.off[v-1]
	}
	succs.to, preds.to = make([]int, m), make([]int, m)
	edges(func(from, to int) {
		succs.to[succs.off[from]] = to
		succs.off[from]++
		preds.to[preds.off[to]] = from
		preds.off[to]++
	})
	copy(succs.off[1:], succs.off[:exit+1])
	copy(preds.off[1:], preds.off[:exit+1])
	succs.off[0], preds.off[0] = 0, 0
	return succs, preds
}

// DomTree holds immediate dominators for a function's CFG; the virtual
// exit is one more leaf of it.
type DomTree struct{ t domTree }

// BuildDom computes the dominator tree of fn.
func BuildDom(fn *Fn) *DomTree {
	succs, preds := cfg(fn)
	return &DomTree{newDomTree(fn.Blocks[0].ID, succs, preds)}
}

// domIntervals DFS-numbers the tree given by parent pointers (parent[root]
// == root; nodes with reach[v] == -1 are skipped), so that ancestor tests
// become one interval comparison. Dominator chains in straight-line CFGs
// are as deep as the program, which made the chain-walking Dominates
// quadratic across the precedence derivation's pair loop.
func domIntervals(root int, parent, reach []int) (tin, tout []int) {
	n := len(parent)
	tin = make([]int, n)
	tout = make([]int, n)
	head := make([]int, n)
	next := make([]int, n)
	for i := range head {
		head[i] = -1
	}
	// Build child lists in reverse so DFS visits low IDs first
	// (determinism only; any order yields valid intervals).
	for v := n - 1; v >= 0; v-- {
		if v == root || reach[v] == -1 || parent[v] == -1 {
			continue
		}
		next[v] = head[parent[v]]
		head[parent[v]] = v
	}
	t := 0
	stack := []int{root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v < 0 {
			tout[-(v + 1)] = t
			t++
			continue
		}
		tin[v] = t
		t++
		stack = append(stack, -(v + 1))
		for c := head[v]; c != -1; c = next[c] {
			stack = append(stack, c)
		}
	}
	return tin, tout
}

// Idom returns the immediate dominator block ID of b (the entry returns
// itself), or -1 if b is unreachable.
func (d *DomTree) Idom(b int) int { return d.t.idom[b] }

// Dominates reports whether block a dominates block b (reflexively).
// Unreachable blocks dominate nothing and are dominated by everything
// vacuously false here: queries on unreachable blocks return false.
func (d *DomTree) Dominates(a, b int) bool { return d.t.dominates(a, b) }

// StmtDominates reports whether access a dominates access b: every path
// from entry to b passes through a before reaching b.
func (d *DomTree) StmtDominates(a, b *Access) bool {
	if a.Blk == b.Blk {
		return a.Idx < b.Idx
	}
	return d.Dominates(a.Blk.ID, b.Blk.ID)
}

// PostDomTree holds immediate postdominators: b postdominates a when every
// path from a to the exit passes through b. The synchronization analysis
// uses it for the producer side of the precedence derivation: a write
// followed on every path by a post (that must wait for its completion) is
// ordered before the post's consumers.
type PostDomTree struct {
	t    domTree // over the reverse CFG, from the virtual exit
	exit int     // the virtual exit node (== len(fn.Blocks))
}

// BuildPostDom computes the postdominator tree of fn over a virtual exit
// node joining all Ret blocks (the reverse CFG's entry).
func BuildPostDom(fn *Fn) *PostDomTree {
	succs, preds := cfg(fn)
	exit := len(fn.Blocks)
	return &PostDomTree{t: newDomTree(exit, preds, succs), exit: exit}
}

// Ipdom returns the immediate postdominator of block b (the virtual exit
// returns itself), or -1 if b cannot reach the exit.
func (d *PostDomTree) Ipdom(b int) int { return d.t.idom[b] }

// ExitID returns the id of the virtual exit node (== number of blocks).
func (d *PostDomTree) ExitID() int { return d.exit }

// PostDominates reports whether block a postdominates block b.
func (d *PostDomTree) PostDominates(a, b int) bool {
	if a == d.exit {
		// The virtual exit postdominates only itself here, matching the
		// chain walk this replaced (which stopped short of the exit).
		return b == d.exit
	}
	return d.t.dominates(a, b)
}

// StmtPostDominates reports whether access a postdominates access b: every
// path from b to the exit passes through a after b.
func (d *PostDomTree) StmtPostDominates(a, b *Access) bool {
	if a.Blk == b.Blk {
		return a.Idx > b.Idx
	}
	return d.PostDominates(a.Blk.ID, b.Blk.ID)
}
