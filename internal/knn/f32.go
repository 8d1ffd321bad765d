package knn

import "mogul/internal/vec"

// Mixed-precision graph storage. In f32 mode the feature vectors live
// in one flat row-major float32 matrix (Pts32, stride Dim32) and
// Points is nil; the adjacency values narrow through
// sparse.CSR.Narrow32. Graphs are always BUILT in float64 — topology,
// sigma, and edge weights are bit-identical to the f64 mode — and
// narrowed once at the end, so the only f32 effect is storage
// rounding.

// Narrow32 converts the graph's point matrix and adjacency values to
// float32 storage in place. Idempotent.
func (g *Graph) Narrow32() {
	if g.Points != nil {
		g.Pts32, g.Dim32 = vec.Flatten32(g.Points)
		g.Points = nil
	}
	if g.Adj != nil {
		g.Adj.Narrow32()
	}
}

// F32 reports whether the graph stores its points as float32.
func (g *Graph) F32() bool { return g.Pts32 != nil }

// NumPoints returns the stored point count in either precision.
func (g *Graph) NumPoints() int {
	if g.Points != nil {
		return len(g.Points)
	}
	if g.Dim32 > 0 {
		return len(g.Pts32) / g.Dim32
	}
	return 0
}

// PointDim returns the feature dimension, 0 when no points are stored.
func (g *Graph) PointDim() int {
	if len(g.Points) > 0 {
		return len(g.Points[0])
	}
	return g.Dim32
}

// Point32 returns row i of the f32 point matrix (a view).
func (g *Graph) Point32(i int) []float32 {
	return g.Pts32[i*g.Dim32 : (i+1)*g.Dim32]
}

// PointVec returns point i as a float64 vector. In f32 mode this
// widens into a fresh slice — a cold-path accessor; hot loops use
// SqDistTo or Point32 instead.
func (g *Graph) PointVec(i int) vec.Vector {
	if g.Points != nil {
		return g.Points[i]
	}
	return vec.Widen64(nil, g.Point32(i))
}

// SqDistTo returns the squared distance from query q to stored point
// i, dispatching on precision; the f32 path streams half the bytes.
func (g *Graph) SqDistTo(q vec.Vector, i int) float64 {
	if g.Points != nil {
		return vec.SquaredEuclidean(q, g.Points[i])
	}
	return vec.SquaredEuclideanQ32(q, g.Point32(i))
}

// SqDistBatch writes SqDistTo(q, ids[i]) into out[i] for every i, four
// stored points per kernel pass. len(q) must equal PointDim.
func (g *Graph) SqDistBatch(q vec.Vector, ids []int, out []float64) {
	if g.Points != nil {
		vec.SquaredEuclideanRows(q, g.Points, ids, out)
		return
	}
	vec.SquaredEuclideanRows32(q, g.Pts32, ids, out)
}
