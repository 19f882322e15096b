package graph

// CSR is a frozen compressed-sparse-row adjacency: the out-edges of node u
// are Dst[Off[u]:Off[u+1]]. Building it once and traversing flat int32
// slices keeps the hot analysis loops free of per-node allocation and
// pointer chasing.
type CSR struct {
	N   int
	Off []int32
	Dst []int32
}

// BuildCSR constructs a CSR from a degree pass and a fill pass: degree(u)
// must return the out-degree of u, and fill(u, out) must write exactly
// that many destinations into out.
func BuildCSR(n int, degree func(u int) int, fill func(u int, out []int32)) *CSR {
	c := &CSR{N: n, Off: make([]int32, n+1)}
	for u := 0; u < n; u++ {
		c.Off[u+1] = c.Off[u] + int32(degree(u))
	}
	c.Dst = make([]int32, c.Off[n])
	for u := 0; u < n; u++ {
		fill(u, c.Dst[c.Off[u]:c.Off[u+1]])
	}
	return c
}

// Out returns the out-neighbors of u.
func (c *CSR) Out(u int) []int32 { return c.Dst[c.Off[u]:c.Off[u+1]] }
