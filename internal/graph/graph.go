// Package graph provides the small directed-graph toolkit used by the
// analyses: adjacency-list digraphs, strongly connected components and
// reachability rows (Condense/ReachRows, held by condense_test.go to the
// simple Digraph forms in oracle_test.go), bitset rows and matrices, CSR
// adjacency, the batched avoid-one-vertex searches, and the row interner.
package graph

// Digraph is a directed graph over nodes 0..N-1 with adjacency lists.
type Digraph struct {
	N   int
	Adj [][]int
}

// New returns an empty digraph with n nodes.
func New(n int) *Digraph {
	return &Digraph{N: n, Adj: make([][]int, n)}
}

// AddEdge inserts the edge u -> v. Duplicate edges are allowed and harmless
// for the algorithms here.
func (g *Digraph) AddEdge(u, v int) {
	g.Adj[u] = append(g.Adj[u], v)
}
