package ir

// Dominator-tree construction (Cooper–Harvey–Kennedy iterative algorithm).
// The synchronization analysis of section 5.1 needs "a1 dominates b1"
// queries on statements; DomTree supplies block domination, and
// (*DomTree).StmtDominates lifts it to access statements using in-block
// order.

// DomTree holds immediate dominators for a function's CFG.
type DomTree struct {
	fn   *Fn
	idom []int // idom[b] = immediate dominator block ID; entry maps to itself
	rpo  []int // reverse postorder of reachable blocks
	rpoN []int // rpo number per block; -1 if unreachable
	tin  []int // dominator-tree DFS entry time, for O(1) ancestor queries
	tout []int // dominator-tree DFS exit time
}

// BuildDom computes the dominator tree of fn.
func BuildDom(fn *Fn) *DomTree {
	n := len(fn.Blocks)
	d := &DomTree{fn: fn, idom: make([]int, n), rpoN: make([]int, n)}
	for i := range d.idom {
		d.idom[i] = -1
		d.rpoN[i] = -1
	}
	// Postorder DFS from entry.
	visited := make([]bool, n)
	var post []int
	var dfs func(b *Block)
	dfs = func(b *Block) {
		visited[b.ID] = true
		for _, s := range b.Succs() {
			if !visited[s.ID] {
				dfs(s)
			}
		}
		post = append(post, b.ID)
	}
	dfs(fn.Blocks[0])
	for i := len(post) - 1; i >= 0; i-- {
		d.rpo = append(d.rpo, post[i])
	}
	for i, b := range d.rpo {
		d.rpoN[b] = i
	}
	preds := fn.Preds()

	entry := fn.Blocks[0].ID
	d.idom[entry] = entry
	changed := true
	for changed {
		changed = false
		for _, b := range d.rpo {
			if b == entry {
				continue
			}
			newIdom := -1
			for _, p := range preds[b] {
				if d.idom[p.ID] == -1 {
					continue // unprocessed or unreachable
				}
				if newIdom == -1 {
					newIdom = p.ID
				} else {
					newIdom = d.intersect(p.ID, newIdom)
				}
			}
			if newIdom != -1 && d.idom[b] != newIdom {
				d.idom[b] = newIdom
				changed = true
			}
		}
	}
	d.tin, d.tout = domIntervals(entry, d.idom, d.rpoN)
	return d
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

func (d *DomTree) intersect(b1, b2 int) int {
	for b1 != b2 {
		for d.rpoN[b1] > d.rpoN[b2] {
			b1 = d.idom[b1]
		}
		for d.rpoN[b2] > d.rpoN[b1] {
			b2 = d.idom[b2]
		}
	}
	return b1
}

// Idom returns the immediate dominator block ID of b (the entry returns
// itself), or -1 if b is unreachable.
func (d *DomTree) Idom(b int) int { return d.idom[b] }

// Dominates reports whether block a dominates block b (reflexively).
// Unreachable blocks dominate nothing and are dominated by everything
// vacuously false here: queries on unreachable blocks return false.
func (d *DomTree) Dominates(a, b int) bool {
	if d.rpoN[a] == -1 || d.rpoN[b] == -1 {
		return false
	}
	return d.tin[a] <= d.tin[b] && d.tout[b] <= d.tout[a]
}

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
	fn    *Fn
	exit  int   // index of the virtual exit node (== len(fn.Blocks))
	ipdom []int // immediate postdominator in the reverse CFG; -1 unreachable
	onum  []int // reverse-postorder number on the reverse CFG; -1 unreachable
	tin   []int // postdominator-tree DFS entry time
	tout  []int // postdominator-tree DFS exit time
}

// BuildPostDom computes the postdominator tree of fn over a virtual exit
// node joining all Ret blocks (the reverse CFG's entry).
func BuildPostDom(fn *Fn) *PostDomTree {
	n := len(fn.Blocks)
	exit := n
	d := &PostDomTree{fn: fn, exit: exit, ipdom: make([]int, n+1), onum: make([]int, n+1)}
	for i := range d.ipdom {
		d.ipdom[i] = -1
		d.onum[i] = -1
	}
	// Reverse CFG adjacency: radj[v] = nodes reached from v in the
	// reversed graph = forward predecessors; exit -> every Ret block.
	radj := make([][]int, n+1)
	preds := fn.Preds()
	for _, b := range fn.Blocks {
		for _, p := range preds[b.ID] {
			radj[b.ID] = append(radj[b.ID], p.ID)
		}
	}
	for _, b := range fn.Blocks {
		if _, ok := b.Term.(*Ret); ok {
			radj[exit] = append(radj[exit], b.ID)
		}
	}
	// rpreds in the reverse graph = forward successors (plus exit edges).
	rpreds := make([][]int, n+1)
	for v, ws := range radj {
		for _, w := range ws {
			rpreds[w] = append(rpreds[w], v)
		}
	}
	// Postorder DFS from exit on the reverse graph.
	visited := make([]bool, n+1)
	var post []int
	var dfs func(v int)
	dfs = func(v int) {
		visited[v] = true
		for _, w := range radj[v] {
			if !visited[w] {
				dfs(w)
			}
		}
		post = append(post, v)
	}
	dfs(exit)
	order := make([]int, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		order = append(order, post[i])
	}
	for i, v := range order {
		d.onum[v] = i
	}
	d.ipdom[exit] = exit
	changed := true
	for changed {
		changed = false
		for _, v := range order {
			if v == exit {
				continue
			}
			newIp := -1
			for _, p := range rpreds[v] {
				if d.onum[p] == -1 || d.ipdom[p] == -1 {
					continue
				}
				if newIp == -1 {
					newIp = p
				} else {
					newIp = d.intersect(p, newIp)
				}
			}
			if newIp != -1 && d.ipdom[v] != newIp {
				d.ipdom[v] = newIp
				changed = true
			}
		}
	}
	d.tin, d.tout = domIntervals(exit, d.ipdom, d.onum)
	return d
}

func (d *PostDomTree) intersect(b1, b2 int) int {
	for b1 != b2 {
		for d.onum[b1] > d.onum[b2] {
			b1 = d.ipdom[b1]
		}
		for d.onum[b2] > d.onum[b1] {
			b2 = d.ipdom[b2]
		}
	}
	return b1
}

// Ipdom returns the immediate postdominator of block b (the virtual exit
// returns itself), or -1 if b cannot reach the exit.
func (d *PostDomTree) Ipdom(b int) int { return d.ipdom[b] }

// ExitID returns the id of the virtual exit node (== number of blocks).
func (d *PostDomTree) ExitID() int { return d.exit }

// PostDominates reports whether block a postdominates block b.
func (d *PostDomTree) PostDominates(a, b int) bool {
	if d.onum[a] == -1 || d.onum[b] == -1 {
		return false
	}
	if a == d.exit {
		// The virtual exit postdominates only itself here, matching the
		// chain walk this replaced (which stopped short of the exit).
		return b == d.exit
	}
	return d.tin[a] <= d.tin[b] && d.tout[b] <= d.tout[a]
}

// StmtPostDominates reports whether access a postdominates access b: every
// path from b to the exit passes through a after b.
func (d *PostDomTree) StmtPostDominates(a, b *Access) bool {
	if a.Blk == b.Blk {
		return a.Idx > b.Idx
	}
	return d.PostDominates(a.Blk.ID, b.Blk.ID)
}
