package baseline

import (
	"fmt"
	"sync"

	"mogul/internal/core"
	"mogul/internal/dense"
	"mogul/internal/kmeans"
	"mogul/internal/knn"
	"mogul/internal/vec"
)

// EMR is the Efficient Manifold Ranking baseline of Xu et al. [21],
// the state-of-the-art approximation the paper compares against.
//
// Offline, EMR selects d anchor points with k-means and represents
// every data point as a Nadaraya-Watson weighted combination (with the
// Epanechnikov quadratic kernel) of its s nearest anchors, giving a
// sparse d x n weight matrix Z. The anchor-graph adjacency is
// W = Z^T Lambda Z with Lambda_kk = 1 / sum_i Z_ki, whose normalized
// form factors as S = H^T H, H = Lambda^{1/2} Z D^{-1/2}. Online, the
// Woodbury identity turns the n x n solve of Equation 2 into a d x d
// one:
//
//	x = (1-alpha) (q + alpha H^T (I_d - alpha H H^T)^{-1} H q)
//
// Matching the measurement semantics of the paper's Figure 1 (EMR
// search cost O(n d + d^3) per query), the d x d Gram matrix and its
// factorization are computed inside each query by default; set
// PrefactorGram to amortize them across queries and see how the
// comparison shifts (an ablation the harness exposes).
type EMR struct {
	alpha float64
	n, d  int
	// s is the number of nearest anchors per point.
	s int
	// anchors are the k-means centers.
	anchors []vec.Vector
	// hIdx/hVal hold the sparse column h_i of H (anchor ids and weights
	// of z_i, already scaled by Lambda^{1/2} and D^{-1/2}) of point i at
	// [i*s, (i+1)*s).
	hIdx []int32
	hVal []float64

	// PrefactorGram, when true, computes and caches the d x d Gram
	// factorization once instead of per query. The cache is filled
	// under a sync.Once so a prefactored EMR is safe to query from
	// many goroutines.
	PrefactorGram bool
	gramOnce      sync.Once
	cachedGram    *dense.LU
	cachedGramErr error
}

// EMRConfig controls EMR construction.
type EMRConfig struct {
	// NumAnchors is d, the anchor-point count (the paper sweeps
	// 10..1000 and uses 10 in Figure 1).
	NumAnchors int
	// NumNearestAnchors is s, the anchors each point is attached to
	// (EMR's own evaluation uses small s; default 5, clamped to d).
	NumNearestAnchors int
	// Seed drives k-means.
	Seed int64
}

// NewEMR builds the EMR baseline over raw feature vectors. EMR does
// not use the k-NN graph: its anchor graph replaces it.
func NewEMR(points []vec.Vector, alpha float64, cfg EMRConfig) (*EMR, error) {
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("baseline: alpha must lie in (0,1), got %g", alpha)
	}
	n := len(points)
	if n == 0 {
		return nil, fmt.Errorf("baseline: EMR needs at least one point")
	}
	d := cfg.NumAnchors
	if d <= 0 {
		d = 10
	}
	if d > n {
		d = n
	}
	s := cfg.NumNearestAnchors
	if s <= 0 {
		s = 5
	}
	if s > d {
		s = d
	}

	km, err := kmeans.Run(points, kmeans.Config{K: d, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("baseline: EMR anchors: %w", err)
	}
	ag := knn.BuildAnchorGraph(points, km.Centroids, s)
	return &EMR{
		alpha:   alpha,
		n:       n,
		d:       len(km.Centroids),
		s:       ag.S,
		anchors: ag.Anchors,
		hIdx:    ag.HIdx,
		hVal:    ag.HVal,
	}, nil
}

// NumAnchors returns d.
func (e *EMR) NumAnchors() int { return e.d }

// factorGram builds and factorizes G = I_d - alpha H H^T.
// Cost O(n s^2 + d^3).
func (e *EMR) factorGram() (*dense.LU, error) {
	g := dense.Identity(e.d)
	for i := 0; i < e.n; i++ {
		idx, val := e.hIdx[i*e.s:(i+1)*e.s], e.hVal[i*e.s:(i+1)*e.s]
		for a := range idx {
			for b := range idx {
				g.Add(int(idx[a]), int(idx[b]), -e.alpha*val[a]*val[b])
			}
		}
	}
	lu, err := dense.Factorize(g)
	if err != nil {
		return nil, fmt.Errorf("baseline: EMR gram factorization: %w", err)
	}
	return lu, nil
}

// gram returns the factorized Gram matrix, cached across queries when
// PrefactorGram is set (filled once, so concurrent queries never race
// on the cache).
func (e *EMR) gram() (*dense.LU, error) {
	if !e.PrefactorGram {
		return e.factorGram()
	}
	e.gramOnce.Do(func() {
		e.cachedGram, e.cachedGramErr = e.factorGram()
	})
	return e.cachedGram, e.cachedGramErr
}

// scoresForH computes the EMR score vector for a query whose H-column
// is hq (sparse idx/val) and whose self-term index is selfIdx (or -1
// for out-of-sample queries).
func (e *EMR) scoresForH(hqIdx []int32, hqVal []float64, selfIdx int) ([]float64, error) {
	lu, err := e.gram()
	if err != nil {
		return nil, err
	}
	// rhs = H q (dense length d).
	rhs := make([]float64, e.d)
	for t, a := range hqIdx {
		rhs[a] = hqVal[t]
	}
	z := lu.Solve(rhs)
	// x_i = (1-alpha)(q_i + alpha h_i^T z), with h_i^T z in the four-lane
	// order of vec.DotGather that the root-package engine scores with.
	scores := make([]float64, e.n)
	for i := 0; i < e.n; i++ {
		s := vec.DotGather(e.hVal[i*e.s:(i+1)*e.s], e.hIdx[i*e.s:(i+1)*e.s], z)
		s *= e.alpha
		if i == selfIdx {
			s += 1
		}
		scores[i] = (1 - e.alpha) * s
	}
	return scores, nil
}

// AllScores implements Ranker.
func (e *EMR) AllScores(query int) ([]float64, error) {
	if query < 0 || query >= e.n {
		return nil, fmt.Errorf("baseline: query %d outside [0,%d)", query, e.n)
	}
	return e.scoresForH(e.hIdx[query*e.s:(query+1)*e.s], e.hVal[query*e.s:(query+1)*e.s], query)
}

// TopK implements Ranker.
func (e *EMR) TopK(query, k int) ([]core.Result, error) {
	scores, err := e.AllScores(query)
	if err != nil {
		return nil, err
	}
	return topKFromScores(scores, k), nil
}

// TopKOutOfSample ranks database points for a query vector outside the
// database: the query's anchor weights are computed on the fly and the
// anchor graph is queried with them, EMR's native out-of-sample
// mechanism (compared against Mogul's in Figure 7 / Table 2).
func (e *EMR) TopKOutOfSample(q vec.Vector, k int) ([]core.Result, error) {
	if dim := len(e.anchors[0]); len(q) != dim {
		return nil, fmt.Errorf("baseline: query dimension %d, want %d", len(q), dim)
	}
	var sc knn.Scratch
	idx, val := make([]int32, e.s), make([]float64, e.s)
	knn.AnchorWeights(&sc, q, e.anchors, e.s, idx, val)
	scores, err := e.scoresForH(idx, val, -1)
	if err != nil {
		return nil, err
	}
	return topKFromScores(scores, k), nil
}
