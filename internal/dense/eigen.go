package dense

import (
	"fmt"
	"math"
	"sort"

	"mogul/internal/vec"
)

// EigSym computes the full eigendecomposition of a symmetric matrix
// using the cyclic Jacobi rotation method: A = V diag(w) V^T with
// orthonormal columns of V. Eigenvalues are returned in ascending
// order. Its caller is the FMR baseline's spectral clustering (the
// smallest eigenvectors of the normalized Laplacian); a tridiagonal
// matrix goes to EigTridiag instead. Input with a NaN or infinite
// element is an error.
//
// Jacobi is O(n^3) per sweep but unconditionally stable and simple,
// which is the right trade-off for the baseline sizes used here. The
// rotations accumulate into the transpose of V, so eigenvector p is a
// contiguous row while the sweeps run.
func EigSym(a *Matrix) (w []float64, v *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("dense: EigSym of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	// Verify symmetry up to a scaled tolerance so silent mistakes in
	// callers surface here rather than as garbage eigenvectors. A NaN
	// would pass every tolerance test, so non-finite input stops here.
	var maxAbs float64
	for i, x := range a.Data {
		v := math.Abs(x)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("dense: EigSym input has non-finite element %g at (%d,%d)", x, i/n, i%n)
		}
		if v > maxAbs {
			maxAbs = v
		}
	}
	tol := 1e-9 * (1 + maxAbs)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(a.At(i, j)-a.At(j, i)) > tol {
				return nil, nil, fmt.Errorf("dense: EigSym input not symmetric at (%d,%d): %g vs %g", i, j, a.At(i, j), a.At(j, i))
			}
		}
	}

	md := a.Clone().Data
	vt := Identity(n).Data // row p is eigenvector p
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		// Off-diagonal Frobenius norm decides convergence.
		var off float64
		for i := 0; i < n; i++ {
			for _, x := range md[i*n+i+1 : (i+1)*n] {
				off += x * x
			}
		}
		if math.Sqrt(2*off) <= 1e-12*(1+maxAbs)*float64(n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := md[p*n+q]
				if math.Abs(apq) <= 1e-300 {
					continue
				}
				app, aqq := md[p*n+p], md[q*n+q]
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Apply the rotation J(p, q, theta) on both sides: columns
				// p and q, then rows p and q, then rows p and q of V^T.
				for k := p; k < n*n; k += n {
					akp, akq := md[k], md[k+q-p]
					md[k] = c*akp - s*akq
					md[k+q-p] = s*akp + c*akq
				}
				vec.Rot(md[p*n:(p+1)*n], md[q*n:(q+1)*n], c, s)
				vec.Rot(vt[p*n:(p+1)*n], vt[q*n:(q+1)*n], c, s)
			}
		}
	}

	// Extract eigenvalues and sort ascending with their vectors.
	w = make([]float64, n)
	for i := 0; i < n; i++ {
		w[i] = md[i*n+i]
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return w[idx[i]] < w[idx[j]] })
	sortedW := make([]float64, n)
	sortedV := NewMatrix(n, n)
	for newCol, oldCol := range idx {
		sortedW[newCol] = w[oldCol]
		for r, x := range vt[oldCol*n : (oldCol+1)*n] {
			sortedV.Data[r*n+newCol] = x
		}
	}
	return sortedW, sortedV, nil
}
