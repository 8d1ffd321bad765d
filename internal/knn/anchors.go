package knn

import (
	"math"

	"mogul/internal/par"
	"mogul/internal/vec"
)

// The anchor graph of Efficient Manifold Ranking (Xu et al., SIGIR'11):
// every point is written as a Nadaraya-Watson weighted combination of
// its s nearest anchors. The EMR engine in the root package and the
// paper-figure baseline (internal/baseline) both attach through the
// code below, which is what lets the engine pin itself to the baseline;
// the nearest anchors are selected under the (squared distance, id)
// rule of every other attach, through the same selection.

// FarthestBandwidthScale stretches the adaptive bandwidth when every
// anchor is in support (s == number of anchors): there is no (s+1)-th
// distance to act as the kernel's vanishing point, and using the s-th
// — the farthest support distance itself — makes the Epanechnikov
// kernel vanish exactly on the farthest anchor, collapsing its weight
// to the 1e-12 tie clamp. Scaling the farthest distance by 3/2 places
// the vanishing point beyond the support, so the farthest anchor keeps
// a genuine weight (u = 2/3, w ≈ 0.417) and the weight profile stays
// smooth in the data.
const FarthestBandwidthScale = 1.5

// AnchorWeights attaches p to its s nearest anchors with Nadaraya-Watson
// weights under the Epanechnikov quadratic kernel
// K(t) = 3/4 (1 - t^2) for |t| <= 1. The adaptive bandwidth is the
// distance to the (s+1)-th nearest anchor so every attached anchor gets
// a positive weight (the kernel vanishes exactly at the bandwidth); when
// s equals the anchor count the farthest support distance scaled by
// FarthestBandwidthScale is used instead. s is clamped to the anchor
// count.
//
// The anchor ids land in idx[:s] and the normalized weights (summing to
// 1) in val[:s], nearest first; the return value is the unnormalized
// kernel total, a density-at-point proxy the sharded fan-out can use as
// an affinity scale. Ties on distance break by ascending anchor id, and
// weights that would vanish under distance ties are clamped to 1e-12 so
// the point keeps s supports. Only the s+1 nearest anchors are selected
// (one batched sweep, the shared selection), and the square root is
// taken only for them.
func AnchorWeights(sc *Scratch, p vec.Vector, anchors []vec.Vector, s int, idx []int32, val []float64) float64 {
	d := len(anchors)
	s = min(s, d)
	sel := scanInto(sc, p, min(s+1, d), anchors)
	var bandwidth float64
	if s < d {
		bandwidth = sel[s].Dist
	} else {
		bandwidth = sel[s-1].Dist * FarthestBandwidthScale
	}
	if bandwidth == 0 {
		bandwidth = 1 // point coincides with >= s anchors; weights stay uniform
	}
	idx, val = idx[:s], val[:s]
	var total float64
	for t, nb := range sel[:s] {
		u := nb.Dist / bandwidth
		w := 0.75 * (1 - u*u)
		if w <= 0 {
			w = 1e-12 // keep s supports even under distance ties
		}
		idx[t], val[t] = int32(nb.ID), w
		total += w
	}
	for t := range val {
		val[t] /= total
	}
	return total
}

// AnchorGraph is the offline half of EMR: the anchor set and the
// normalized-graph factor H = Lambda^{1/2} Z D^{-1/2}, stored flat by
// column with stride S (point i's anchor ids are HIdx[i*S:(i+1)*S] and
// its entries of H the same span of HVal), plus the column sums and the
// Lambda diagonal needed to attach points that arrive after
// construction.
type AnchorGraph struct {
	Anchors []vec.Vector
	S       int
	HIdx    []int32
	HVal    []float64
	// ColSum[k] = sum_i Z_ki over the construction set; Lambda[k] is
	// 1/ColSum[k] (0 for empty columns).
	ColSum []float64
	Lambda []float64
}

// BuildAnchorGraph attaches every point to its s nearest anchors (see
// AnchorWeights) and assembles the normalized factor H. s is clamped
// to the anchor count.
func BuildAnchorGraph(points, anchors []vec.Vector, s int) *AnchorGraph {
	n, d := len(points), len(anchors)
	s = min(s, d)
	hIdx := make([]int32, n*s)
	hVal := make([]float64, n*s)
	colSum := make([]float64, d)
	// Attachment is the dominant stage; it runs on the par pool with
	// per-block scratch. Each point's weights are a pure function of
	// (p, anchors, s), and colSum accumulates through the fixed-shape
	// blocked reduction, so the graph is bit-identical at any GOMAXPROCS.
	par.ReduceVec(colSum, n, 16, func(lo, hi int, acc []float64) {
		var sc Scratch
		for i := lo; i < hi; i++ {
			idx, val := hIdx[i*s:(i+1)*s], hVal[i*s:(i+1)*s]
			AnchorWeights(&sc, points[i], anchors, s, idx, val)
			for t, a := range idx {
				acc[a] += val[t]
			}
		}
	})

	// Lambda_kk = 1/colSum[k]; degree D_ii = z_i^T Lambda (Z 1) where
	// (Z 1)_k = colSum[k], hence D_ii = sum_t z_it * Lambda_tt * colSum[t]
	// = sum_t z_it = 1 after normalization. Computed explicitly anyway
	// to stay faithful when weights are clamped.
	lambda := make([]float64, d)
	for k, cs := range colSum {
		if cs > 0 {
			lambda[k] = 1 / cs
		}
	}
	par.For(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			NormalizeColumn(hIdx[i*s:(i+1)*s], hVal[i*s:(i+1)*s], lambda, colSum)
		}
	})
	return &AnchorGraph{Anchors: anchors, S: s, HIdx: hIdx, HVal: hVal, ColSum: colSum, Lambda: lambda}
}

// NormalizeColumn turns a point's anchor weights z (val, over the
// anchors idx) into its column of H in place,
// h = Lambda^{1/2} z D^{-1/2} with D = sum_t z_t Lambda_t colSum_t: the
// second pass of BuildAnchorGraph, and how a point arriving after the
// build is attached against the frozen normalization.
func NormalizeColumn(idx []int32, val, lambda, colSum []float64) {
	var deg float64
	for t, a := range idx {
		deg += val[t] * lambda[a] * colSum[a]
	}
	invSqrtD := 0.0
	if deg > 0 {
		invSqrtD = 1 / math.Sqrt(deg)
	}
	for t, a := range idx {
		val[t] = math.Sqrt(lambda[a]) * val[t] * invSqrtD
	}
}
