package dense

import (
	"fmt"
	"math"

	"mogul/internal/vec"
)

// EigSym computes the full eigendecomposition A = V diag(w) Vᵀ of a
// symmetric matrix, with orthonormal columns of V. The eigenvalues come
// back ascending, and column k of V is the unit eigenvector of w[k],
// its largest-magnitude component (the first such on ties) made
// positive, as EigTridiag's are. Its caller is the FMR baseline's
// per-block low-rank step, which keeps the pairs of largest |λ|; a
// tridiagonal matrix goes to EigTridiag instead. Non-square,
// non-symmetric or non-finite input is an error, and so are a QL that
// does not converge and an eigenvalue past the float64 range.
//
// Householder reflectors H = I − 2uuᵀ reduce A to the tridiagonal
// T = QᵀAQ (Golub & Van Loan §8.3.1; EISPACK's tred2) and accumulate
// Qᵀ's rows as they go; EigTridiag's implicit QL then rotates those
// rows into Vᵀ (EISPACK's tql2), so V = QZ takes no matrix product.
// The work runs on a copy of A scaled by a power of two to unit max-abs
// entry (exact); the eigenvalues are scaled back at the end. The solver
// is serial, so its bits do not depend on GOMAXPROCS.
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
	tol := 1e-9 * maxAbs
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(a.At(i, j)-a.At(j, i)) > tol {
				return nil, nil, fmt.Errorf("dense: EigSym input not symmetric at (%d,%d): %g vs %g", i, j, a.At(i, j), a.At(j, i))
			}
		}
	}

	_, exp := math.Frexp(maxAbs)
	md := a.Clone().Data
	for i, x := range md {
		md[i] = math.Ldexp(x, -exp)
	}
	qt := Identity(n)
	u, p, r := make([]float64, n), make([]float64, n), make([]float64, n)
	for k := 0; k+2 < n; k++ {
		// Column k below the diagonal, read as row k right of it, is
		// reflected onto its first entry. A tail under 2⁻⁵⁰⁰ of the unit
		// scale is dropped instead: that moves no eigenvalue past
		// rounding, and a reflector built from it would not be unit.
		x := md[k*n+k+1 : (k+1)*n]
		ss := vec.Dot(x[1:], x[1:])
		if ss < 0x1p-1000 {
			continue
		}
		alpha := -math.Copysign(math.Sqrt(x[0]*x[0]+ss), x[0])
		uk, pk := u[k+1:], p[k+1:]
		copy(uk, x)
		uk[0] -= alpha
		vec.Vector(uk).Scale(1 / math.Sqrt(uk[0]*uk[0]+ss))
		x[0] = alpha
		// The trailing block B becomes HBH = B − 2uwᵀ − 2wuᵀ, where
		// p = Bu and w = p − (uᵀp)u; w overwrites p.
		for i := range pk {
			pk[i] = vec.Dot(md[(k+1+i)*n+k+1:(k+2+i)*n], uk)
		}
		vec.Axpy(pk, -vec.Dot(uk, pk), uk)
		for i := range pk {
			row := md[(k+1+i)*n+k+1 : (k+2+i)*n]
			vec.Axpy(row, -2*uk[i], pk)
			vec.Axpy(row, -2*pk[i], uk)
		}
		// Qᵀ becomes HQᵀ: row k+1+i less 2uᵢr, where r = Σ uᵢ·row k+1+i.
		clear(r)
		for i, ui := range uk {
			vec.Axpy(r, ui, qt.Row(k+1+i))
		}
		for i, ui := range uk {
			vec.Axpy(qt.Row(k+1+i), -2*ui, r)
		}
	}
	d, e := make([]float64, n), make([]float64, max(n-1, 0))
	for k := range d {
		d[k] = md[k*n+k]
	}
	for k := range e {
		e[k] = md[k*n+k+1]
	}

	w, qt, err = eigTridiag(d, e, qt)
	if err != nil {
		return nil, nil, err
	}
	for k := range w {
		if w[k] = math.Ldexp(w[k], exp); math.IsInf(w[k], 0) {
			return nil, nil, fmt.Errorf("dense: EigSym: eigenvalue %d overflows float64", k)
		}
	}
	return w, qt.Transpose(), nil
}
