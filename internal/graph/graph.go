// Package graph provides the small directed-graph toolkit used by the
// analyses: strongly connected components and reachability rows over
// graphs given as out-edge iterators (Condense/ReachRows, held by
// condense_test.go to the simple adjacency-list forms in oracle_test.go),
// bitset rows and matrices, CSR adjacency, the batched avoid-one-vertex
// searches, and the row interner.
package graph
