// Package dense provides the dense linear-algebra kernels the
// reproduction needs: LU factorization (the O(n^3) inverse-matrix
// baseline of the paper and the exactness oracle for tests), a
// deterministic parallel inversion of symmetric positive definite
// matrices (the EMR engine's gram system, spd.go), and one symmetric
// eigensolver: the implicit QL on a tridiagonal (tridiag.go; the
// spectral engine's Rayleigh-Ritz step), which a Householder reduction
// feeds for a dense matrix (eigen.go; FMR's per-block low-rank
// approximation).
//
// Everything is written against the Go standard library; no BLAS. The
// point of these kernels is correctness and clarity at the baseline
// scales of the paper's evaluation, not peak FLOPs.
package dense

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	// Data holds the elements row by row; element (i, j) is
	// Data[i*Cols+j].
	Data []float64
	// Rows and Cols are the dimensions.
	Rows, Cols int
}

// NewMatrix returns a zero-initialized rows x cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("dense: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Data: make([]float64, rows*cols), Rows: rows, Cols: cols}
}

// NewMatrixFrom builds a matrix from a slice of rows, copying the data.
func NewMatrixFrom(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("dense: ragged input: row %d has %d cols, want %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{Data: append([]float64(nil), m.Data...), Rows: m.Rows, Cols: m.Cols}
}

// Row returns row i; the slice aliases the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Mul returns m * b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("dense: Mul dimension mismatch %dx%d * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		mi := m.Row(i)
		oi := out.Row(i)
		for k := 0; k < m.Cols; k++ {
			a := mi[k]
			if a == 0 {
				continue
			}
			bk := b.Row(k)
			for j := 0; j < b.Cols; j++ {
				oi[j] += a * bk[j]
			}
		}
	}
	return out
}

// MulVec returns m * x as a fresh slice.
func (m *Matrix) MulVec(x []float64) []float64 {
	if m.Cols != len(x) {
		panic(fmt.Sprintf("dense: MulVec dimension mismatch %dx%d * %d", m.Rows, m.Cols, len(x)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		mi := m.Row(i)
		var s float64
		for j, v := range x {
			s += mi[j] * v
		}
		out[i] = s
	}
	return out
}

// Transpose returns m^T.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// LU holds an LU factorization with partial pivoting: P*A = L*U with
// unit-diagonal L stored below the diagonal of lu and U on and above.
type LU struct {
	lu    *Matrix
	pivot []int
}

// Factorize computes the LU factorization of a square matrix. It
// returns an error when the matrix is singular to working precision.
func Factorize(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("dense: LU of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	lu := a.Clone()
	pivot := make([]int, n)
	for k := 0; k < n; k++ {
		// Partial pivoting: pick the largest |value| in column k.
		p, maxAbs := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > maxAbs {
				p, maxAbs = i, v
			}
		}
		if maxAbs == 0 {
			return nil, fmt.Errorf("dense: singular matrix (zero pivot at column %d)", k)
		}
		pivot[k] = p
		if p != k {
			rk, rp := lu.Row(k), lu.Row(p)
			for j := 0; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
		}
		pv := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / pv
			lu.Set(i, k, f)
			if f == 0 {
				continue
			}
			ri, rk := lu.Row(i), lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= f * rk[j]
			}
		}
	}
	return &LU{lu: lu, pivot: pivot}, nil
}

// Solve solves A x = b for x using the factorization.
func (f *LU) Solve(b []float64) []float64 {
	return f.SolveInto(make([]float64, len(b)), b)
}

// SolveInto solves A x = b into dst, which must have the same length
// as b and may not alias it. It performs no allocation, so pooled
// query paths can reuse one solution buffer per worker. Solve
// delegates here; both run the identical arithmetic.
func (f *LU) SolveInto(dst, b []float64) []float64 {
	n := f.lu.Rows
	if len(b) != n || len(dst) != n {
		panic(fmt.Sprintf("dense: LU.SolveInto length mismatch dst=%d b=%d n=%d", len(dst), len(b), n))
	}
	x := dst
	copy(x, b)
	// Apply row swaps.
	for k := 0; k < n; k++ {
		if p := f.pivot[k]; p != k {
			x[k], x[p] = x[p], x[k]
		}
	}
	// Forward substitution with unit-lower L.
	for i := 1; i < n; i++ {
		ri := f.lu.Row(i)
		var s float64
		for j := 0; j < i; j++ {
			s += ri[j] * x[j]
		}
		x[i] -= s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		ri := f.lu.Row(i)
		var s float64
		for j := i + 1; j < n; j++ {
			s += ri[j] * x[j]
		}
		x[i] = (x[i] - s) / ri[i]
	}
	return x
}

// Inverse returns A^{-1} computed column by column; this is the O(n^3)
// time, O(n^2) space computation that the paper's "Inverse" baseline
// performs (Equation 2).
func (f *LU) Inverse() *Matrix {
	n := f.lu.Rows
	inv := NewMatrix(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col := f.Solve(e)
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv
}

// NewLUFromComponents reassembles a serialized factorization (version 1
// and 2 MOGULEMR files store one) from its raw parts — the packed LU
// matrix (unit-lower L below the diagonal, U on and above), the pivot
// rows, and the row-swap parity — validating the invariants Factorize
// guarantees: a square matrix, pivot[k] in [k, n), a +/-1 swap parity
// consistent with the pivots, finite entries, and nonzero U diagonal.
// Corrupt serialized factors fail here instead of producing NaN scores
// (or dividing by zero) downstream.
func NewLUFromComponents(lu *Matrix, pivot []int, signDet float64) (*LU, error) {
	n := lu.Rows
	if lu.Cols != n {
		return nil, fmt.Errorf("dense: LU components: non-square %dx%d matrix", lu.Rows, lu.Cols)
	}
	if len(lu.Data) != n*n {
		return nil, fmt.Errorf("dense: LU components: %d elements for %dx%d matrix", len(lu.Data), n, n)
	}
	if len(pivot) != n {
		return nil, fmt.Errorf("dense: LU components: %d pivots for order %d", len(pivot), n)
	}
	sign := 1.0
	for k, p := range pivot {
		if p < k || p >= n {
			return nil, fmt.Errorf("dense: LU components: pivot[%d] = %d outside [%d,%d)", k, p, k, n)
		}
		if p != k {
			sign = -sign
		}
	}
	if signDet != sign {
		return nil, fmt.Errorf("dense: LU components: signDet %g inconsistent with pivots (want %g)", signDet, sign)
	}
	for i, v := range lu.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("dense: LU components: non-finite element at %d", i)
		}
	}
	for i := 0; i < n; i++ {
		if lu.At(i, i) == 0 {
			return nil, fmt.Errorf("dense: LU components: zero U diagonal at %d", i)
		}
	}
	return &LU{lu: lu, pivot: pivot}, nil
}

// Inverse is a convenience wrapper: factorize and invert.
func Inverse(a *Matrix) (*Matrix, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.Inverse(), nil
}

// Solve is a convenience wrapper: factorize and solve a single system.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}
