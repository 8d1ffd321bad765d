package baseline

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mogul/internal/core"
	"mogul/internal/dense"
	"mogul/internal/knn"
	"mogul/internal/sparse"
)

// FMR is the Fast Manifold Ranking baseline of He et al. [8]: the
// adjacency matrix is partitioned into blocks by spectral clustering,
// cross-block edges are dropped, each block's normalized adjacency is
// replaced by a rank-r SVD approximation, and scores follow from the
// Woodbury identity applied block by block:
//
//	(I - alpha U diag(s) U^T)^{-1} =
//	  I + U diag(alpha s_i / (1 - alpha s_i)) U^T
//
// Precomputation performs the partitioning and the per-block SVDs;
// queries touch only the query's block, so scores outside it are zero
// — which is exactly the approximation error mode the paper discusses
// (FMR degrades when spectral clustering fits the data poorly).
type FMR struct {
	alpha float64
	n     int
	// block[i] is the block id of node i.
	block []int
	// blocks[b] lists the node ids of block b in ascending order.
	blocks [][]int
	// pos[i] is the index of node i inside its block.
	pos []int
	// factors[b] holds U (|b| x r) and the Woodbury diagonal
	// alpha*s/(1-alpha*s) for block b.
	factors []fmrBlock
}

type fmrBlock struct {
	u    *dense.Matrix
	diag []float64
}

// FMRConfig controls FMR construction.
type FMRConfig struct {
	// NumBlocks is the spectral-partition count (default 16).
	NumBlocks int
	// Rank is the per-block SVD rank; the paper's evaluation used 250.
	// It is clamped to each block's size.
	Rank int
	// Seed drives the power-iteration start vectors.
	Seed int64
}

// NewFMR builds the FMR baseline over a k-NN graph.
func NewFMR(g *knn.Graph, alpha float64, cfg FMRConfig) (*FMR, error) {
	if alpha <= 0 || alpha >= 1 {
		return nil, fmt.Errorf("baseline: alpha must lie in (0,1), got %g", alpha)
	}
	numBlocks := cfg.NumBlocks
	if numBlocks <= 0 {
		numBlocks = 16
	}
	rank := cfg.Rank
	if rank <= 0 {
		rank = 250
	}
	n := g.Len()
	if numBlocks > n {
		numBlocks = n
	}

	f := &FMR{alpha: alpha, n: n}
	f.block = spectralPartition(g.Adj, numBlocks, cfg.Seed)
	nb := 0
	for _, b := range f.block {
		if b+1 > nb {
			nb = b + 1
		}
	}
	f.blocks = make([][]int, nb)
	f.pos = make([]int, n)
	for i := 0; i < n; i++ {
		f.pos[i] = len(f.blocks[f.block[i]])
		f.blocks[f.block[i]] = append(f.blocks[f.block[i]], i)
	}

	f.factors = make([]fmrBlock, nb)
	for b := 0; b < nb; b++ {
		blk, err := buildFMRBlock(g.Adj, f.blocks[b], alpha, rank)
		if err != nil {
			return nil, fmt.Errorf("baseline: FMR block %d: %w", b, err)
		}
		f.factors[b] = blk
	}
	return f, nil
}

// buildFMRBlock extracts the dense within-block adjacency, normalizes
// it with within-block degrees, and keeps the rank-r spectral
// approximation S_b ≈ V_r diag(lambda_r) V_r^T with the r largest
// |lambda| (the optimal symmetric rank-r approximation; the paper's
// "low-rank approximation such as SVD"). A symmetric
// eigendecomposition is used rather than a literal SVD because the
// normalized adjacency is indefinite: an SVD returns |lambda| and
// would silently flip the sign of the negative part of the spectrum,
// breaking the Woodbury inverse.
func buildFMRBlock(adj *sparse.CSR, members []int, alpha float64, rank int) (fmrBlock, error) {
	m := len(members)
	local := make(map[int]int, m)
	for p, id := range members {
		local[id] = p
	}
	a := dense.NewMatrix(m, m)
	deg := make([]float64, m)
	for p, id := range members {
		cols, vals := adj.Row(id)
		for t, j := range cols {
			if q, ok := local[j]; ok {
				a.Set(p, q, vals[t])
				deg[p] += vals[t]
			}
		}
	}
	for p := 0; p < m; p++ {
		if deg[p] > 0 {
			deg[p] = 1 / math.Sqrt(deg[p])
		}
	}
	for p := 0; p < m; p++ {
		for q := 0; q < m; q++ {
			a.Set(p, q, a.At(p, q)*deg[p]*deg[q])
		}
	}
	lambda, v, err := dense.EigSym(a)
	if err != nil {
		return fmrBlock{}, err
	}
	r := rank
	if r > m {
		r = m
	}
	// Select the r eigenvalues of largest magnitude (eigenvalues come
	// back ascending, so candidates sit at both ends).
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return math.Abs(lambda[idx[a]]) > math.Abs(lambda[idx[b]])
	})
	idx = idx[:r]
	u := dense.NewMatrix(m, r)
	diag := make([]float64, r)
	for t, col := range idx {
		lam := lambda[col]
		// Spectral radius of a normalized adjacency is <= 1; clamp
		// numerical overshoot so 1 - alpha*lam stays positive.
		if lam > 1 {
			lam = 1
		}
		denom := 1 - alpha*lam
		if denom < 1e-9 {
			denom = 1e-9
		}
		diag[t] = alpha * lam / denom
		for p := 0; p < m; p++ {
			u.Set(p, t, v.At(p, col))
		}
	}
	return fmrBlock{u: u, diag: diag}, nil
}

// spectralPartition recursively bisects the graph with Fiedler-vector
// splits at the median (a balanced normalized cut, matching the
// paper's characterization of FMR's partitioning), until numBlocks
// parts exist. The Fiedler vector is computed by power iteration on
// the normalized adjacency with the trivial eigenvector deflated.
func spectralPartition(adj *sparse.CSR, numBlocks int, seed int64) []int {
	n := adj.Rows
	assign := make([]int, n)
	parts := [][]int{allNodes(n)}
	rng := rand.New(rand.NewSource(seed))
	for len(parts) < numBlocks {
		// Split the largest part.
		largest := 0
		for i, p := range parts {
			if len(p) > len(parts[largest]) {
				largest = i
			}
		}
		if len(parts[largest]) < 2 {
			break
		}
		left, right := bisect(adj, parts[largest], rng)
		parts[largest] = left
		parts = append(parts, right)
	}
	for b, p := range parts {
		for _, id := range p {
			assign[id] = b
		}
	}
	return assign
}

func allNodes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// bisect splits a node subset by the sign structure of an approximate
// Fiedler vector, balanced at the median.
func bisect(adj *sparse.CSR, members []int, rng *rand.Rand) (left, right []int) {
	m := len(members)
	local := make(map[int]int, m)
	for p, id := range members {
		local[id] = p
	}
	// Sub-block sparse rows with within-subset normalization.
	cols := make([][]int, m)
	vals := make([][]float64, m)
	deg := make([]float64, m)
	for p, id := range members {
		cs, vs := adj.Row(id)
		for t, j := range cs {
			if q, ok := local[j]; ok {
				cols[p] = append(cols[p], q)
				vals[p] = append(vals[p], vs[t])
				deg[p] += vs[t]
			}
		}
	}
	invSqrt := make([]float64, m)
	sqrtDeg := make([]float64, m)
	var degNorm float64
	for p, d := range deg {
		if d > 0 {
			invSqrt[p] = 1 / math.Sqrt(d)
			sqrtDeg[p] = math.Sqrt(d)
		}
		degNorm += d
	}
	degNorm = math.Sqrt(degNorm)

	// Power iteration on S with deflation of v1 = D^{1/2} 1 / ||.||,
	// the eigenvector of eigenvalue 1; what remains converges to the
	// second eigenvector, whose sign split approximates the normalized
	// cut. A fixed iteration budget keeps this O(edges).
	x := make([]float64, m)
	y := make([]float64, m)
	for p := range x {
		x[p] = rng.Float64()*2 - 1
	}
	const iters = 60
	for it := 0; it < iters; it++ {
		// Deflate the trivial direction v1 = D^{1/2}1 / ||D^{1/2}1||:
		// x <- x - (x . v1) v1.
		var proj float64
		for p := range x {
			proj += x[p] * sqrtDeg[p]
		}
		if degNorm > 0 {
			proj /= degNorm * degNorm
			for p := range x {
				x[p] -= proj * sqrtDeg[p]
			}
		}
		// y = S x (shifted by +1 to make the operator PSD so power
		// iteration converges to the algebraically largest remaining
		// eigenvalue).
		for p := 0; p < m; p++ {
			var s float64
			for t, q := range cols[p] {
				s += vals[p][t] * invSqrt[p] * invSqrt[q] * x[q]
			}
			y[p] = s + x[p]
		}
		// Normalize.
		var norm float64
		for _, v := range y {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			break
		}
		for p := range y {
			x[p] = y[p] / norm
		}
	}

	// Median split for balance.
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return x[idx[a]] < x[idx[b]] })
	half := m / 2
	left = make([]int, 0, half)
	right = make([]int, 0, m-half)
	for r, p := range idx {
		if r < half {
			left = append(left, members[p])
		} else {
			right = append(right, members[p])
		}
	}
	sort.Ints(left)
	sort.Ints(right)
	return left, right
}

// AllScores implements Ranker: scores are non-zero only inside the
// query's block.
func (f *FMR) AllScores(query int) ([]float64, error) {
	if query < 0 || query >= f.n {
		return nil, fmt.Errorf("baseline: query %d outside [0,%d)", query, f.n)
	}
	scores := make([]float64, f.n)
	b := f.block[query]
	blk := f.factors[b]
	members := f.blocks[b]
	m := len(members)
	qLocal := f.pos[query]

	// w = U^T e_q is row qLocal of U.
	r := blk.u.Cols
	w := make([]float64, r)
	for j := 0; j < r; j++ {
		w[j] = blk.u.At(qLocal, j) * blk.diag[j]
	}
	// x = (1-alpha) (e_q + U w)
	for p := 0; p < m; p++ {
		var s float64
		for j := 0; j < r; j++ {
			s += blk.u.At(p, j) * w[j]
		}
		if p == qLocal {
			s += 1
		}
		scores[members[p]] = (1 - f.alpha) * s
	}
	return scores, nil
}

// TopK implements Ranker.
func (f *FMR) TopK(query, k int) ([]core.Result, error) {
	scores, err := f.AllScores(query)
	if err != nil {
		return nil, err
	}
	return topKFromScores(scores, k), nil
}

// NumBlocks returns the number of blocks the partition produced.
func (f *FMR) NumBlocks() int { return len(f.blocks) }
