package knn

// Mixed-precision graph storage. In f32 mode the feature vectors are
// float32 rows (vec.Rows decides their layout and kernels) and the
// adjacency values narrow through sparse.CSR.Narrow32. Graphs are always
// BUILT in float64 — topology, sigma, and edge weights are bit-identical
// to the f64 mode — and narrowed once at the end, so the only f32 effect
// is storage rounding.

// Narrow32 converts the graph's point matrix and adjacency values to
// float32 storage in place. Idempotent.
func (g *Graph) Narrow32() {
	g.Points = g.Points.Narrow()
	if g.Adj != nil {
		g.Adj.Narrow32()
	}
}
