// Package spectral computes truncated eigendecompositions of large
// sparse symmetric matrices — the rank-r basis behind the Fast
// Spectral Ranking backend (Iscen et al., "Fast Spectral Ranking for
// Similarity Search"): the normalized k-NN graph adjacency
// S = C^{-1/2} A C^{-1/2} is factored once as S ~ U diag(vals) U^T,
// after which the Manifold Ranking resolvent collapses to dot
// products in the embedding (see mogul.BuildSpectral).
//
// The solver is Lanczos with full (two-pass classical Gram-Schmidt)
// reorthogonalization and a Rayleigh-Ritz step through dense.EigSym
// on the projected tridiagonal matrix. Everything is deterministic at
// any GOMAXPROCS: the start vector is a pure function of the seed,
// matrix-vector products parallelize over rows (each row independent,
// fixed four-lane kernel order inside), and every inner product is a
// fixed-shape blocked reduction folded in ascending block order (the
// par.SumBlocks contract; cgs2 folds many at once), so the basis —
// and every score and saved byte downstream of it — is bit-identical
// at 1 worker and at 64.
package spectral

import (
	"fmt"
	"math"

	"mogul/internal/dense"
	"mogul/internal/par"
	"mogul/internal/sparse"
	"mogul/internal/vec"
)

// Basis is a truncated eigendecomposition S ~ Vecs diag(Vals) Vecs^T.
type Basis struct {
	// Rank is the number of retained eigenpairs (clamped to what the
	// Krylov space exposed; see Decompose).
	Rank int
	// Vals holds the Ritz values in descending order, clamped to
	// [-1, 1] (the spectrum of a normalized adjacency; clamping keeps
	// the ranking transfer function 1/(1-alpha*lambda) finite and
	// positive under floating-point overshoot).
	Vals []float64
	// Vecs holds the orthonormal Ritz vectors row-major: element
	// [i*Rank+t] is component i of eigenvector t, so the per-item
	// embedding rows the query scan streams are contiguous.
	Vecs []float64
}

// Row returns the embedding row of item i (aliases Basis storage).
func (b *Basis) Row(i int) []float64 { return b.Vecs[i*b.Rank : (i+1)*b.Rank] }

// breakdownTol declares the Krylov space exhausted: the residual of
// the three-term recurrence has collapsed to rounding noise relative
// to the unit-norm basis vectors (a "happy breakdown" — an invariant
// subspace was found, which with full reorthogonalization only
// happens when the matrix has fewer reachable eigendirections than
// requested steps).
const breakdownTol = 1e-12

// Decompose computes the top-rank (largest algebraic eigenvalue)
// eigenpairs of the symmetric matrix S with steps Lanczos iterations
// (steps <= 0 selects 2*rank+16). rank and steps are clamped to the
// matrix order; on early breakdown the returned Basis carries as many
// pairs as the Krylov space exposed, which can be fewer than rank.
// The result is deterministic for a fixed (S, rank, steps, seed) at
// any GOMAXPROCS.
func Decompose(S *sparse.CSR, rank, steps int, seed int64) (*Basis, error) {
	if S.Rows != S.Cols {
		return nil, fmt.Errorf("spectral: non-square %dx%d matrix", S.Rows, S.Cols)
	}
	n := S.Rows
	if n < 1 {
		return nil, fmt.Errorf("spectral: empty matrix")
	}
	if rank < 1 {
		return nil, fmt.Errorf("spectral: rank must be positive, got %d", rank)
	}
	if rank > n {
		rank = n
	}
	if steps <= 0 {
		steps = 2*rank + 16
	}
	if steps < rank {
		steps = rank
	}
	if steps > n {
		steps = n
	}

	// Lanczos with full reorthogonalization. V collects the orthonormal
	// Krylov basis; alphas/betas the projected tridiagonal.
	V := make([][]float64, 0, steps)
	alphas := make([]float64, 0, steps)
	betas := make([]float64, 0, steps) // betas[j] couples v_j and v_{j+1}

	v0 := make([]float64, n)
	par.For(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v0[i] = splitmix(uint64(seed)^0x9e3779b97f4a7c15, uint64(i)) - 0.5
		}
	})
	if norm := math.Sqrt(dotPar(v0, v0)); norm > 0 {
		scalePar(v0, 1/norm)
	} else {
		v0[0] = 1
	}
	V = append(V, v0)

	w := make([]float64, n)
	cg := newCGS2(n, steps)
	for j := 0; j < steps; j++ {
		mulVecPar(S, w, V[j])

		// Three-term recurrence, then two passes of classical
		// Gram-Schmidt against the whole basis (CGS2): the first pass
		// includes the recurrence terms themselves, the second mops up
		// the cancellation error, keeping V orthonormal to working
		// precision — which is what keeps the projected matrix genuinely
		// tridiagonal and the Ritz pairs trustworthy. alpha = <w, v_j> is
		// the j-th coefficient of the first pass.
		alpha, beta := cg.orthogonalize(w, V)
		alphas = append(alphas, alpha)
		if j+1 >= steps {
			break
		}
		if beta <= breakdownTol {
			// Invariant subspace found: the tridiagonal recurrence cannot
			// continue past it without destroying the T = V^T S V
			// structure, so stop with the pairs the space exposed.
			break
		}
		betas = append(betas, beta)
		next := make([]float64, n)
		inv := 1 / beta
		par.For(n, 0, func(lo, hi int) {
			wb := w[lo:hi]
			nb := next[lo:hi]
			for x := range wb {
				nb[x] = wb[x] * inv
			}
		})
		V = append(V, next)
	}

	// Rayleigh-Ritz on the projected tridiagonal.
	m := len(V)
	T := dense.NewMatrix(m, m)
	for j := 0; j < m; j++ {
		T.Set(j, j, alphas[j])
		if j+1 < m {
			T.Set(j, j+1, betas[j])
			T.Set(j+1, j, betas[j])
		}
	}
	ritz, Y, err := dense.EigSym(T)
	if err != nil {
		return nil, fmt.Errorf("spectral: Rayleigh-Ritz eigensolve: %w", err)
	}

	if rank > m {
		rank = m
	}
	vals := make([]float64, rank)
	for t := 0; t < rank; t++ {
		// EigSym returns ascending; take the largest, descending.
		v := ritz[m-1-t]
		if v > 1 {
			v = 1
		}
		if v < -1 {
			v = -1
		}
		vals[t] = v
	}

	// Ritz vectors U = V Y (top columns), assembled row-major so item
	// i's embedding is contiguous: row i accumulates V[j][i] * (row j of
	// Yt) in ascending j, where Yt is the contiguous m x rank copy of
	// Y's top columns, descending. Rows go 16 at a time, so a tile's
	// rows stay in L1 while each Lanczos vector is read contiguously.
	// Every element sums its terms in ascending j order at any
	// GOMAXPROCS; a zero term adds ±0, which leaves the accumulator
	// alone because, starting from +0, it is never -0.
	Yt := make([]float64, m*rank)
	for j := 0; j < m; j++ {
		for t := 0; t < rank; t++ {
			Yt[j*rank+t] = Y.At(j, m-1-t)
		}
	}
	vecs := make([]float64, n*rank)
	par.For(n, 128, func(lo, hi int) {
		for t0 := lo; t0 < hi; t0 += 16 {
			t1 := min(t0+16, hi)
			for j := 0; j < m; j++ {
				yj := Yt[j*rank : (j+1)*rank]
				for x, v := range V[j][t0:t1] {
					vec.Axpy(vecs[(t0+x)*rank:(t0+x+1)*rank], v, yj)
				}
			}
		}
	})
	return &Basis{Rank: rank, Vals: vals, Vecs: vecs}, nil
}

// cgs2 is the reorthogonalization of one Lanczos step, fused into three
// fan-outs over the par.Blocks(n, 0) partition that dotPar reduces
// over: (A) every block's partials of <w, V_i>; (B) the first update
// and, on the same block, the second pass's partials; (C) the second
// update and the partial of <w, w>. Each coefficient folds its block
// partials in ascending block order from 0, as par.SumBlocks does, and
// each element of w takes its updates in ascending i, as one par.For
// per pass would; so every inner product and every element of w has
// the bits of the plain two-pass loop over dotPar, at any GOMAXPROCS,
// for three fan-outs and three streams of the basis per step.
type cgs2 struct {
	n, blocks, steps int
	// part[b*steps+i] is block b's partial of <w, V_i> in the current
	// pass; norm[b] its partial of <w, w>.
	part, norm   []float64
	coef0, coef1 []float64
}

func newCGS2(n, steps int) *cgs2 {
	_, blocks := par.Blocks(n, 0)
	return &cgs2{
		n: n, blocks: blocks, steps: steps,
		part: make([]float64, blocks*steps), norm: make([]float64, blocks),
		coef0: make([]float64, steps), coef1: make([]float64, steps),
	}
}

// fold sums the first len(dst) partials of every block into dst in
// ascending block order, starting from 0.
func (g *cgs2) fold(dst []float64) {
	clear(dst)
	for b := 0; b < g.blocks; b++ {
		for i, v := range g.part[b*g.steps : b*g.steps+len(dst)] {
			dst[i] += v
		}
	}
}

// orthogonalize removes from w its components along the basis V, twice,
// and returns <w, V[len(V)-1]> as w came in (the step's alpha) and the
// norm of w as it leaves (the step's beta).
func (g *cgs2) orthogonalize(w []float64, V [][]float64) (alpha, beta float64) {
	k := len(V)
	c0, c1 := g.coef0[:k], g.coef1[:k]
	partials := func(b, lo, hi int) {
		p := g.part[b*g.steps : b*g.steps+k]
		wb := w[lo:hi]
		for i, v := range V {
			p[i] = vec.Dot(wb, v[lo:hi])
		}
	}
	update := func(c []float64, lo, hi int) {
		wb := w[lo:hi]
		for i, ci := range c {
			if ci != 0 {
				vec.Axpy(wb, -ci, V[i][lo:hi])
			}
		}
	}
	par.ForBlocks(g.n, 0, partials)
	g.fold(c0)
	par.ForBlocks(g.n, 0, func(b, lo, hi int) {
		update(c0, lo, hi)
		partials(b, lo, hi)
	})
	g.fold(c1)
	par.ForBlocks(g.n, 0, func(b, lo, hi int) {
		update(c1, lo, hi)
		g.norm[b] = vec.Dot(w[lo:hi], w[lo:hi])
	})
	var ww float64
	for _, v := range g.norm {
		ww += v
	}
	return c0[k-1], math.Sqrt(ww)
}

// mulVecPar computes y = S*x parallelized over rows; each row is an
// independent fixed-order DotGather, so the product is bit-identical
// to the serial CSR MulVecTo at any worker count.
func mulVecPar(S *sparse.CSR, y, x []float64) {
	par.For(S.Rows, 256, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a, b := S.RowPtr[i], S.RowPtr[i+1]
			y[i] = vec.DotGather(S.Val[a:b], S.Col[a:b], x)
		}
	})
}

// dotPar is a deterministic parallel inner product: fixed-shape block
// partials (four-lane vec.Dot inside), folded in ascending block
// order.
func dotPar(a, b []float64) float64 {
	return par.SumBlocks(len(a), 0, func(lo, hi int) float64 {
		return vec.Dot(a[lo:hi], b[lo:hi])
	})
}

func scalePar(a []float64, s float64) {
	par.For(len(a), 0, func(lo, hi int) {
		ab := a[lo:hi]
		for x := range ab {
			ab[x] *= s
		}
	})
}

// splitmix maps (seed, index) to a uniform float64 in [0, 1) — the
// deterministic start-vector generator (no global RNG state, so the
// value of component i never depends on evaluation order).
func splitmix(seed, i uint64) float64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
