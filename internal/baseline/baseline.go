// Package baseline implements every comparison method of the paper's
// evaluation (Section 5):
//
//   - Inverse: the exact O(n^3) inverse-matrix computation of
//     Equation 2 [25].
//   - Iterative: the power-iteration scheme of Zhou et al. [26] run to
//     a residual threshold.
//   - FMR: block-wise low-rank approximation after spectral
//     partitioning, He et al. [8].
//   - EMR: the anchor-graph approximation of Xu et al. [21], the
//     state-of-the-art competitor in the paper.
package baseline

import (
	"fmt"
	"math"

	"mogul/internal/core"
	"mogul/internal/dense"
	"mogul/internal/knn"
	"mogul/internal/sparse"
	"mogul/internal/topk"
)

// topKFromScores converts a dense score vector into ranked Results.
func topKFromScores(scores []float64, k int) []core.Result {
	if k > len(scores) {
		k = len(scores)
	}
	c := topk.New(k)
	for i, s := range scores {
		c.Offer(i, s)
	}
	items := c.Results()
	out := make([]core.Result, len(items))
	for i, it := range items {
		out[i] = core.Result{Node: it.ID, Score: it.Score}
	}
	return out
}

// Inverse is the paper's exact baseline: it materializes
// (1-alpha)(I - alpha S)^{-1} with dense LU at O(n^3) time and O(n^2)
// memory. Mirroring the paper's measurement semantics (Figure 1
// reports per-query search time that includes the solve), the heavy
// factorization happens inside TopK/AllScores, not at construction.
type Inverse struct {
	alpha float64
	s     *dense.Matrix // dense normalized adjacency
	n     int

	// factored caches the LU after the first query so that evaluation
	// oracles (which issue many queries) pay O(n^3) once; benchmarks
	// that want the paper's per-query cost call ResetCache between
	// queries.
	factored *dense.LU
}

// NewInverse builds the dense baseline from a k-NN graph. Memory is
// O(n^2): the caller is responsible for respecting dataset-size limits
// (the paper could not run it on PubFig or NUS-WIDE for this reason).
func NewInverse(g *knn.Graph, alpha float64) (*Inverse, error) {
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("baseline: alpha must lie in (0,1), got %g", alpha)
	}
	n := g.Len()
	sn := g.NormalizedAdjacency()
	m := dense.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		cols, vals := sn.Row(i)
		for t, j := range cols {
			m.Set(i, j, vals[t])
		}
	}
	return &Inverse{alpha: alpha, s: m, n: n}, nil
}

// ResetCache drops the cached factorization so the next query pays the
// full O(n^3) cost again (used to reproduce the paper's measurement).
func (iv *Inverse) ResetCache() { iv.factored = nil }

func (iv *Inverse) ensureFactored() error {
	if iv.factored != nil {
		return nil
	}
	a := dense.NewMatrix(iv.n, iv.n)
	for i := 0; i < iv.n; i++ {
		for j := 0; j < iv.n; j++ {
			v := -iv.alpha * iv.s.At(i, j)
			if i == j {
				v += 1
			}
			a.Set(i, j, v)
		}
	}
	f, err := dense.Factorize(a)
	if err != nil {
		return fmt.Errorf("baseline: inverse factorization: %w", err)
	}
	iv.factored = f
	return nil
}

// AllScores implements Ranker: x* = (1-alpha)(I - alpha S)^{-1} q.
func (iv *Inverse) AllScores(query int) ([]float64, error) {
	if query < 0 || query >= iv.n {
		return nil, fmt.Errorf("baseline: query %d outside [0,%d)", query, iv.n)
	}
	if err := iv.ensureFactored(); err != nil {
		return nil, err
	}
	q := make([]float64, iv.n)
	q[query] = 1 - iv.alpha
	return iv.factored.Solve(q), nil
}

// TopK implements Ranker.
func (iv *Inverse) TopK(query, k int) ([]core.Result, error) {
	scores, err := iv.AllScores(query)
	if err != nil {
		return nil, err
	}
	return topKFromScores(scores, k), nil
}

// Iterative is the scheme of Zhou et al. [26]:
// x_{t+1} = alpha S x_t + (1-alpha) q, iterated until the L1 residual
// between consecutive iterates drops below Epsilon (the paper's
// evaluation used 1e-4). Each iteration costs O(n) on a k-NN graph.
type Iterative struct {
	alpha float64
	// Epsilon is the convergence threshold on ||x_{t+1} - x_t||_1.
	Epsilon float64
	// MaxIter caps iterations (convergence is geometric with ratio
	// alpha, so alpha = 0.99 needs on the order of 1000 iterations).
	MaxIter int
	norm    *sparse.CSR
	n       int
	// LastIterations records the iteration count of the most recent
	// query (reported in experiments).
	LastIterations int
}

// NewIterative builds the iterative baseline.
func NewIterative(g *knn.Graph, alpha float64) (*Iterative, error) {
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("baseline: alpha must lie in (0,1), got %g", alpha)
	}
	return &Iterative{
		alpha:   alpha,
		Epsilon: 1e-4,
		MaxIter: 100000,
		norm:    g.NormalizedAdjacency(),
		n:       g.Len(),
	}, nil
}

// AllScores implements Ranker.
func (it *Iterative) AllScores(query int) ([]float64, error) {
	if query < 0 || query >= it.n {
		return nil, fmt.Errorf("baseline: query %d outside [0,%d)", query, it.n)
	}
	x := make([]float64, it.n)
	next := make([]float64, it.n)
	x[query] = 1 - it.alpha
	for iter := 1; ; iter++ {
		it.norm.MulVecTo(next, x)
		var residual float64
		for i := range next {
			v := it.alpha * next[i]
			if i == query {
				v += 1 - it.alpha
			}
			residual += math.Abs(v - x[i])
			next[i] = v
		}
		x, next = next, x
		if residual < it.Epsilon || iter >= it.MaxIter {
			it.LastIterations = iter
			break
		}
	}
	return x, nil
}

// TopK implements Ranker.
func (it *Iterative) TopK(query, k int) ([]core.Result, error) {
	scores, err := it.AllScores(query)
	if err != nil {
		return nil, err
	}
	return topKFromScores(scores, k), nil
}
