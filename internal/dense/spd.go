package dense

import (
	"fmt"
	"math"

	"mogul/internal/par"
	"mogul/internal/vec"
)

// spdPanel is how many pivot rows InvertSPD's Cholesky stage finishes
// before it sweeps the trailing rows: each trailing row then takes the
// whole panel's updates while it sits in L1, instead of being streamed
// from memory once per pivot. A fixed constant — every element still
// receives its updates in ascending pivot order, so the panel width
// changes the memory traffic, never a bit of the result.
const spdPanel = 16

// spdMinRows is the block floor (in matrix rows) of InvertSPD's
// parallel sweeps: below it a sweep is too short to pay for waking a
// second worker.
const spdMinRows = 16

// InvertSPD returns the inverse of a symmetric positive definite
// matrix, reading only the upper triangle of a (which is left
// untouched). It runs in three stages of n^3/6 multiply-adds each —
// an upper Cholesky factor A = U^T U by row-major trailing axpys, the
// triangular inverse W = U^-1 by contiguous row dots, and the
// symmetric product A^-1 = W W^T by contiguous row dots — n^3/2 in all
// against the n^3/3 of a pivoted LU factorization (which then still
// needs n solves to give the inverse), and every stage fans out over
// internal/par. Each output element is produced by one fixed sequence
// of operations inside one fixed block, so the result is bit-identical
// at any GOMAXPROCS, and it is exactly symmetric (the lower triangle is
// a copy of the upper).
//
// A matrix that is not positive definite to working precision, or that
// holds a non-finite value in its upper triangle, yields an error —
// never a panic, never a NaN in the result: every off-diagonal element
// of the factor feeds the diagonal below it, so any breakdown surfaces
// as a pivot that is not a positive finite number.
func InvertSPD(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("dense: SPD inverse of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows

	// Stage 1: u's upper triangle becomes U.
	u := a.Clone()
	for k0 := 0; k0 < n; k0 += spdPanel {
		k1 := min(k0+spdPanel, n)
		for k := k0; k < k1; k++ {
			rk := u.Row(k)
			d := rk[k]
			if !(d > 0) || math.IsInf(d, 0) {
				return nil, fmt.Errorf("dense: matrix is not positive definite (pivot %g at row %d)", d, k)
			}
			d = math.Sqrt(d)
			rk[k] = d
			for j := k + 1; j < n; j++ {
				rk[j] /= d
			}
			for i := k + 1; i < k1; i++ {
				vec.Axpy(u.Row(i)[i:], -rk[i], rk[i:])
			}
		}
		par.For(n-k1, spdMinRows, func(lo, hi int) {
			for i := k1 + lo; i < k1+hi; i++ {
				ri := u.Row(i)[i:]
				for k := k0; k < k1; k++ {
					rk := u.Row(k)
					vec.Axpy(ri, -rk[i], rk[i:])
				}
			}
		})
	}

	// Stage 2: with L = U^T laid out row-major, row i of W = U^-1
	// follows from W U = I by dots of contiguous segments,
	// W[i][j] = -(W[i][i:j] . L[j][i:j]) / L[j][j]. W overwrites U (not
	// read again once L holds it). A block owns rows [lo, hi) of W and
	// walks the partner rows L[j] in its outer loop, so its own rows stay
	// cached while each partner row is streamed once per block.
	l := NewMatrix(n, n)
	par.For(n, spdMinRows, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			lj := l.Row(j)
			for i := 0; i <= j; i++ {
				lj[i] = u.Data[i*n+j]
			}
		}
	})
	par.For(n, spdMinRows, func(lo, hi int) {
		for j := lo; j < n; j++ {
			lj := l.Row(j)
			for i := lo; i < min(hi, j); i++ {
				wi := u.Row(i)
				wi[j] = -vec.Dot(wi[i:j], lj[i:j]) / lj[j]
			}
			if j < hi {
				u.Data[j*n+j] = 1 / lj[j]
			}
		}
	})

	// Stage 3: A^-1 = W W^T; W is upper triangular, so element (i, j)
	// with j >= i is the dot of the two rows' tails from j on (same
	// block-owns-rows, partner-row-outermost sweep). The result
	// overwrites L, and the lower triangle mirrors the upper.
	inv := l
	par.For(n, spdMinRows, func(lo, hi int) {
		for j := lo; j < n; j++ {
			wj := u.Row(j)[j:]
			for i := lo; i < min(hi, j+1); i++ {
				inv.Data[i*n+j] = vec.Dot(u.Row(i)[j:], wj)
			}
		}
	})
	par.For(n, spdMinRows, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			out := inv.Row(j)
			for i := 0; i < j; i++ {
				out[i] = inv.Data[i*n+j]
			}
		}
	})
	return inv, nil
}

// SolveSPD solves A x = b for a symmetric positive definite A of order
// n = len(b), in place and without allocating: a holds A row-major with
// stride n and only its lower triangle is read (the strict upper
// triangle is never touched). On return the lower triangle holds the
// Cholesky factor L (A = L L^T) and b holds x. It is the solve for
// systems small enough that a call's overhead matters — n^3/6 + n^2
// multiply-adds over contiguous row prefixes, no pivoting, no blocking,
// one goroutine.
//
// A pivot that is not a positive finite number — A is not positive
// definite to working precision, or its lower triangle holds a
// non-finite value (every off-diagonal element of L feeds the pivot of
// its own row) — stops the factorization and reports false, with a and b
// partly overwritten and nothing in them to be used.
func SolveSPD(a, b []float64) bool {
	n := len(b)
	for i := 0; i < n; i++ {
		ri := a[i*n : i*n+i+1]
		for j := 0; j < i; j++ {
			rj := a[j*n : j*n+j+1]
			s := ri[j]
			for k, l := range rj[:j] {
				s -= ri[k] * l
			}
			ri[j] = s / rj[j]
		}
		d := ri[i]
		for _, l := range ri[:i] {
			d -= l * l
		}
		if !(d > 0) || math.IsInf(d, 0) {
			return false
		}
		ri[i] = math.Sqrt(d)
	}
	// L y = b by row dots, then L^T x = y by row axpys: both walk rows of
	// L, never a column.
	for i := 0; i < n; i++ {
		ri := a[i*n : i*n+i+1]
		s := b[i]
		for k, l := range ri[:i] {
			s -= l * b[k]
		}
		b[i] = s / ri[i]
	}
	for i := n - 1; i >= 0; i-- {
		ri := a[i*n : i*n+i+1]
		x := b[i] / ri[i]
		b[i] = x
		for k, l := range ri[:i] {
			b[k] -= l * x
		}
	}
	return true
}
