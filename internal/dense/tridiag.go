package dense

import (
	"fmt"
	"math"
	"slices"

	"mogul/internal/vec"
)

// maxQLIter bounds the implicit QL iterations per eigenvalue, counted
// over the whole matrix as LAPACK's dsteqr counts them: Wilkinson-shifted
// QL converges cubically, in one or two on average, but a block graded
// over hundreds of binary orders can spend many on its large end before
// its small end converges.
const maxQLIter = 30

// EigTridiag computes the full eigendecomposition of the symmetric
// tridiagonal matrix T with diagonal d and off-diagonal e (e[i] couples
// rows i and i+1, so len(e) = len(d) - 1) by implicit QL with
// Wilkinson shifts (Golub & Van Loan §8.3; EISPACK's tql2). The
// eigenvalues come back ascending in w, and row k of zt is the unit
// eigenvector of w[k], its largest-magnitude component (the first such
// on ties) made positive so the result is one fixed matrix. It is the
// Rayleigh-Ritz step of spectral.Decompose, whose Lanczos hands it T
// directly. Non-finite input, a matrix that takes more than maxQLIter
// iterations per eigenvalue, or an eigenvalue past the float64 range is
// an error.
//
// Each QL rotation mixes eigenvector rows i and i+1 of zt as
// x, y = c*x - s*y, s*x + c*y, which is vec.Rot. The work runs on a copy
// of T scaled by a power of two to unit max-abs entry (exact, and it
// keeps the shift's differences clear of overflow); the eigenvalues are
// scaled back at the end. The solver is serial, so its bits do not
// depend on GOMAXPROCS.
func EigTridiag(d, e []float64) (w []float64, zt *Matrix, err error) {
	m := len(d)
	if len(e) != max(m-1, 0) {
		return nil, nil, fmt.Errorf("dense: EigTridiag with %d diagonal and %d off-diagonal entries", m, len(e))
	}
	w, off := slices.Clone(d), append(slices.Clone(e), 0) // off[m-1] stays 0
	var norm float64
	for i := range w {
		a, b := math.Abs(w[i]), math.Abs(off[i])
		if !(a <= math.MaxFloat64 && b <= math.MaxFloat64) {
			return nil, nil, fmt.Errorf("dense: EigTridiag input has a non-finite entry at %d: %g, %g", i, w[i], off[i])
		}
		norm = max(norm, a, b)
	}
	_, exp := math.Frexp(norm)
	for i := range w {
		w[i], off[i] = math.Ldexp(w[i], -exp), math.Ldexp(off[i], -exp)
	}

	zt = Identity(m)
	iters := 0
	for l := 0; l < m; l++ {
		for {
			// T splits below the first coupling at or past l that adds
			// nothing to its two diagonals, or that is under 2⁻⁵¹¹ of the
			// unit scale (as LAPACK's dsteqr splits below the square root
			// of the underflow threshold): a rotation built from
			// subnormals is not orthogonal.
			k := l
			for ; k < m-1; k++ {
				a, dd := math.Abs(off[k]), math.Abs(w[k])+math.Abs(w[k+1])
				if a+dd == dd || a < 0x1p-511 {
					break
				}
			}
			if k == l {
				break
			}
			if iters++; iters > maxQLIter*m {
				return nil, nil, fmt.Errorf("dense: EigTridiag: no convergence in %d iterations, at eigenvalue %d", maxQLIter*m, l)
			}
			// The shift is the eigenvalue of T's leading 2 x 2 block at l
			// nearer w[l]; the rotations chase the bulge from k up to l.
			g := (w[l+1] - w[l]) / (2 * off[l])
			r := math.Hypot(g, 1)
			g = w[k] - w[l] + off[l]/(g+math.Copysign(r, g))
			s, c, p := 1.0, 1.0, 0.0
			i := k - 1
			for ; i >= l; i-- {
				f, b := s*off[i], c*off[i]
				r = math.Hypot(f, g)
				off[i+1] = r
				if r == 0 {
					// The chase underflowed: T splits at i+1 instead.
					w[i+1] -= p
					off[k] = 0
					break
				}
				s, c = f/r, g/r
				g = w[i+1] - p
				r = (w[i]-g)*s + 2*c*b
				p = s * r
				w[i+1] = g + p
				g = c*r - b
				vec.Rot(zt.Row(i), zt.Row(i+1), c, s)
			}
			if r == 0 && i >= l {
				continue
			}
			w[l] -= p
			off[l] = g
			off[k] = 0
		}
	}

	// Ascending order by selection (m swaps of rows at most), then the
	// sign convention and the scale.
	for a := range w {
		k := a
		for b := a + 1; b < m; b++ {
			if w[b] < w[k] {
				k = b
			}
		}
		if k != a {
			w[a], w[k] = w[k], w[a]
			ra, rk := zt.Row(a), zt.Row(k)
			for x := range ra {
				ra[x], rk[x] = rk[x], ra[x]
			}
		}
		if w[a] = math.Ldexp(w[a], exp); math.IsInf(w[a], 0) {
			return nil, nil, fmt.Errorf("dense: EigTridiag: eigenvalue %d overflows float64", a)
		}
		row, big := zt.Row(a), 0
		for x, z := range row {
			if math.Abs(z) > math.Abs(row[big]) {
				big = x
			}
		}
		if row[big] < 0 {
			vec.Vector(row).Scale(-1)
		}
	}
	return w, zt, nil
}
