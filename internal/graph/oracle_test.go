package graph

// The simple forms of reachability, transitive closure and strongly
// connected components over adjacency lists: the references
// condense_test.go holds Condense and ReachRows to.

// digraph is a directed graph over nodes 0..len-1 as adjacency lists.
type digraph [][]int

// addEdge inserts the edge u -> v; duplicate edges are allowed.
func (g digraph) addEdge(u, v int) { g[u] = append(g[u], v) }

// ReachableFrom returns the set of nodes reachable from src (including src)
// as a boolean slice.
func (g digraph) ReachableFrom(src int) []bool {
	seen := make([]bool, len(g))
	stack := []int{src}
	seen[src] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g[u] {
			if seen[v] {
				continue
			}
			seen[v] = true
			stack = append(stack, v)
		}
	}
	return seen
}

// TransitiveClosure returns reach[u][v] = true iff v is reachable from u
// (u reaches itself only via a cycle or a self-edge... by convention here,
// reach[u][u] is true always, since every node trivially reaches itself).
func (g digraph) TransitiveClosure() [][]bool {
	reach := make([][]bool, len(g))
	for u := 0; u < len(g); u++ {
		reach[u] = g.ReachableFrom(u)
	}
	return reach
}

// SCC computes strongly connected components with Tarjan's algorithm
// (iterative). It returns comp, the component index of each node, and the
// number of components. Component indices are in reverse topological order
// of the condensation (a component's index is greater than those of
// components it can reach).
func (g digraph) SCC() (comp []int, ncomp int) {
	const unvisited = -1
	n := len(g)
	comp = make([]int, n)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int
	next := 0

	type frame struct {
		v  int
		ei int
	}
	for start := 0; start < n; start++ {
		if index[start] != unvisited {
			continue
		}
		frames := []frame{{v: start}}
		index[start] = next
		low[start] = next
		next++
		stack = append(stack, start)
		onStack[start] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(g[f.v]) {
				w := g[f.v][f.ei]
				f.ei++
				if index[w] == unvisited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// finish v
			v := f.v
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
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	// Tarjan emits components in reverse topological order already.
	return comp, ncomp
}
