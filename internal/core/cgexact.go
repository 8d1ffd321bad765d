package core

import (
	"fmt"

	"mogul/internal/cg"
	"mogul/internal/sparse"
)

// ExactScoresCG computes the *exact* Manifold Ranking score vector for
// an in-database query using conjugate gradients preconditioned with
// this index's incomplete Cholesky factor.
//
// This is an extension beyond the paper: MogulE obtains exact scores
// by paying for a complete factorization with fill-in (Section 4.6.1);
// the same incomplete factor Mogul already has is the textbook IC(0)
// preconditioner, so a few CG iterations reach exactness with no extra
// precomputation or memory. The "MogulCG" ablation in the benchmark
// harness quantifies the trade (per-query iteration cost versus
// MogulE's one-off denser factor).
//
// tol is the relative residual target (<= 0 selects 1e-8). The method
// works on both approximate and exact indexes (on an exact index the
// preconditioner is the complete factor and CG converges in one or two
// iterations).
func (ix *Index) ExactScoresCG(query int, tol float64) ([]float64, int, error) {
	if err := ix.checkNode(query); err != nil {
		return nil, 0, err
	}
	w := ix.systemMatrix()
	// The right-hand side has a single non-zero; borrow the scratch's x
	// buffer for it (cg.Solve never mutates b), so the O(1)-sparse
	// input costs an O(1) reset instead of an O(n) allocation.
	s := ix.AcquireScratch()
	defer ix.ReleaseScratch(s)
	ix.ready(s)
	q := s.x
	pos := ix.layout.Perm.OldToNew[query]
	q[pos] = 1 - ix.alpha
	res, err := cg.Solve(w, q, cg.Options{Tol: tol, Preconditioner: ix.factor})
	q[pos] = 0
	if err != nil {
		return nil, 0, err
	}
	if !res.Converged {
		return nil, res.Iterations, fmt.Errorf("core: CG did not converge (residual %.3g after %d iterations)", res.Residual, res.Iterations)
	}
	return ix.layout.Perm.ApplyInverse(res.X), res.Iterations, nil
}

// systemMatrix rebuilds (and caches) the permuted system matrix
// W = I - alpha C'^{-1/2} A' C'^{-1/2} for CG solves; the factorization
// path discards it after precomputation to honour the paper's O(n)
// memory budget, so it is materialized lazily only when CG is used.
func (ix *Index) systemMatrix() *sparse.CSR {
	ix.wOnce.Do(func() {
		// Widen64 is the identity in f64 mode; in f32 mode the system
		// matrix is rebuilt from the rounded weights (the factor used as
		// preconditioner is rounded the same way).
		w, err := BuildSystemMatrix(ix.graph.Adj.Widen64(), ix.layout.Perm, ix.alpha)
		if err != nil {
			// The same construction succeeded during NewIndex; failure
			// here means the graph was mutated, which is a caller bug.
			panic("core: rebuilding system matrix: " + err.Error())
		}
		ix.w = w
	})
	return ix.w
}
