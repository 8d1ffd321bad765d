// Package cholesky implements the two sparse symmetric factorizations
// at the core of the paper:
//
//   - IncompleteLDL: the Incomplete Cholesky factorization of
//     Section 4.2 (Equations 6-7). L is restricted to the sparsity
//     pattern of the input matrix W, so the factor has O(n) non-zeros
//     and O(n) factorization cost on k-NN graphs (Lemma 2).
//   - CompleteLDL: the Modified (complete) Cholesky factorization of
//     Section 4.6.1 with fill-in allowed, used by MogulE to recover
//     exact Manifold Ranking scores in O(m) time, m = nnz(L).
//
// Both return a Factor: W ≈ (or =) L D Lᵀ with unit-diagonal L stored
// in compressed sparse column (CSC) form. CSC makes both triangular
// solves stream through columns of L, which is also exactly the access
// pattern the Mogul bound tables need (they read Uᵀ = L by columns).
package cholesky

import (
	"fmt"

	"mogul/internal/sparse"
	"mogul/internal/vec"
)

// DefaultMinPivot is the diagonal clamp applied when a computed pivot
// D_jj is not safely positive. W = I - alpha*S is symmetric positive
// definite for alpha < 1, but incomplete factorizations can still
// produce non-positive pivots; the standard remedy is a small diagonal
// boost. Clamping only perturbs the approximation (Mogul is already
// approximate); it never affects MogulE on SPD inputs in practice, and
// the Stats report makes any clamp visible.
const DefaultMinPivot = 1e-12

// Factor is a unit-lower-triangular LDLᵀ factorization. The strictly
// lower part of L is stored by columns; the unit diagonal is implicit.
type Factor struct {
	// N is the matrix dimension.
	N int
	// ColPtr has length N+1; column j's entries live at
	// RowIdx[ColPtr[j]:ColPtr[j+1]] / Val[...], with row indices in
	// strictly increasing order (all > j).
	ColPtr []int
	// RowIdx holds the row index of each stored entry of L.
	RowIdx []int
	// Val holds the value of each stored entry of L. Exactly one of
	// Val and Val32 is non-nil (when the factor has entries): Val32 is
	// the mixed-precision storage mode (f32.go).
	Val []float64
	// Val32 holds the values as float32 in mixed-precision mode.
	Val32 []float32
	// D is the diagonal matrix of the factorization.
	D []float64
	// Clamped counts pivots that were clamped to MinPivot.
	Clamped int
}

// NNZ returns the number of stored strictly-lower entries of L. The
// paper reports this for COIL-100: 28,293 for Mogul's incomplete
// factor vs 132,818 for MogulE's complete factor (Section 5.2.1).
func (f *Factor) NNZ() int { return len(f.RowIdx) }

// Col returns the strictly-lower entries of column j (rows and values
// alias internal storage).
func (f *Factor) Col(j int) (rows []int, vals []float64) {
	lo, hi := f.ColPtr[j], f.ColPtr[j+1]
	return f.RowIdx[lo:hi], f.Val[lo:hi]
}

// forwardInPlace solves (L D) y = q in place: the column-oriented
// forward substitution of Equation 4. Every forward-substitution entry
// point (ForwardSolve, Solve, SolveInPlace) shares this body, so their
// arithmetic stays bit-identical by construction. The storage width is
// picked once per solve.
func (f *Factor) forwardInPlace(v []float64) {
	if f.Val32 != nil {
		forward(f, f.Val32, v)
	} else {
		forward(f, f.Val, v)
	}
}

func forward[P vec.Float](f *Factor, val []P, v []float64) {
	for j := 0; j < f.N; j++ {
		v[j] /= f.D[j]
		vj := v[j]
		if vj == 0 {
			continue
		}
		lo, hi := f.ColPtr[j], f.ColPtr[j+1]
		vec.ScatterAxpy(v, f.RowIdx[lo:hi], val[lo:hi], -f.D[j]*vj)
	}
}

// backwardInPlace solves Lᵀ x = y in place: the back substitution of
// Equation 5 (U = Lᵀ has unit diagonal), with each column's gather-dot
// accumulated under the vec four-lane contract. Shared by BackSolve,
// Solve, and SolveInPlace for the same bit-identity reason as
// forwardInPlace.
func (f *Factor) backwardInPlace(v []float64) {
	if f.Val32 != nil {
		backward(f, f.Val32, v)
	} else {
		backward(f, f.Val, v)
	}
}

func backward[P vec.Float](f *Factor, val []P, v []float64) {
	for i := f.N - 1; i >= 0; i-- {
		lo, hi := f.ColPtr[i], f.ColPtr[i+1]
		v[i] -= vec.DotGather(val[lo:hi], f.RowIdx[lo:hi], v)
	}
}

// ForwardSolve solves (L D) y = q by column-oriented forward
// substitution (Equation 4 of the paper). A fresh slice is returned.
func (f *Factor) ForwardSolve(q []float64) []float64 {
	if len(q) != f.N {
		panic(fmt.Sprintf("cholesky: ForwardSolve length %d != %d", len(q), f.N))
	}
	y := append([]float64(nil), q...)
	f.forwardInPlace(y)
	return y
}

// BackSolve solves Lᵀ x = y by back substitution (Equation 5; U = Lᵀ
// has unit diagonal). A fresh slice is returned.
func (f *Factor) BackSolve(y []float64) []float64 {
	if len(y) != f.N {
		panic(fmt.Sprintf("cholesky: BackSolve length %d != %d", len(y), f.N))
	}
	x := append([]float64(nil), y...)
	f.backwardInPlace(x)
	return x
}

// Solve computes x with (L D Lᵀ) x = q: the approximate (incomplete
// factor) or exact (complete factor) Manifold Ranking linear solve.
func (f *Factor) Solve(q []float64) []float64 {
	return f.BackSolve(f.ForwardSolve(q))
}

// SolveInPlace is Solve without the allocations: v holds q on entry and
// x on return. The arithmetic (operation order and rounding) is
// bit-identical to Solve because both run the same shared in-place
// substitutions; callers that own a reusable buffer (the query-engine
// scratch, CG preconditioner applications) use this to keep
// steady-state solves allocation-free.
func (f *Factor) SolveInPlace(v []float64) {
	if len(v) != f.N {
		panic(fmt.Sprintf("cholesky: SolveInPlace length %d != %d", len(v), f.N))
	}
	f.forwardInPlace(v)
	f.backwardInPlace(v)
}

// Reconstruct densifies L D Lᵀ; a test oracle for small matrices.
func (f *Factor) Reconstruct() [][]float64 {
	n := f.N
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
		l[i][i] = 1
	}
	for j := 0; j < n; j++ {
		rows, vals := f.Col(j)
		for k, i := range rows {
			l[i][j] = vals[k]
		}
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			var s float64
			for k := 0; k <= j && k <= i; k++ {
				s += l[i][k] * f.D[k] * l[j][k]
			}
			out[i][j] = s
			out[j][i] = s
		}
	}
	return out
}

// checkSquareSymmetricInput validates common preconditions.
func checkSquareSymmetricInput(w *sparse.CSR) error {
	if w.Rows != w.Cols {
		return fmt.Errorf("cholesky: matrix must be square, got %dx%d", w.Rows, w.Cols)
	}
	return nil
}

// IncompleteLDL computes the Incomplete Cholesky factorization of
// Equations 6-7: L inherits exactly the strictly-lower sparsity
// pattern of w. minPivot <= 0 selects DefaultMinPivot.
//
// Cost: for each row the partial dot products touch only pattern
// entries, so on a k-NN graph (bounded row degree) both time and space
// are O(n), which is Lemma 2 of the paper.
func IncompleteLDL(w *sparse.CSR, minPivot float64) (*Factor, error) {
	if err := checkSquareSymmetricInput(w); err != nil {
		return nil, err
	}
	if minPivot <= 0 {
		minPivot = DefaultMinPivot
	}
	n := w.Rows

	// Row-major working storage for L: rowCols[i]/rowVals[i] hold the
	// strictly-lower entries of row i in ascending column order.
	rowCols := make([][]int, n)
	rowVals := make([][]float64, n)
	d := make([]float64, n)
	clamped := 0

	for i := 0; i < n; i++ {
		cols, vals := w.Row(i)
		// The strictly-lower pattern of row i is the prefix of the CSR
		// row with column < i (columns are sorted).
		var wDiag float64
		lower := 0
		for lower < len(cols) && cols[lower] < i {
			lower++
		}
		if lower < len(cols) && cols[lower] == i {
			wDiag = vals[lower]
		}
		ci := make([]int, 0, lower)
		vi := make([]float64, 0, lower)
		for t := 0; t < lower; t++ {
			j := cols[t]
			// Equation 6: L_ij = (W_ij - sum_{k<j} L_ik L_jk D_kk) / D_jj
			s := sparseDotWeighted(ci, vi, rowCols[j], rowVals[j], d, j)
			lij := (vals[t] - s) / d[j]
			ci = append(ci, j)
			vi = append(vi, lij)
		}
		// Equation 7: D_ii = W_ii - sum_{k<i} L_ik^2 D_kk
		di := wDiag
		for t, k := range ci {
			di -= vi[t] * vi[t] * d[k]
		}
		if di < minPivot {
			di = minPivot
			clamped++
		}
		d[i] = di
		rowCols[i] = ci
		rowVals[i] = vi
	}
	return rowsToFactor(n, rowCols, rowVals, d, clamped), nil
}

// sparseDotWeighted computes sum over common indices k < limit of
// a[k]*b[k]*d[k] for two sparse rows with ascending indices.
func sparseDotWeighted(aCols []int, aVals []float64, bCols []int, bVals []float64, d []float64, limit int) float64 {
	var s float64
	ia, ib := 0, 0
	for ia < len(aCols) && ib < len(bCols) {
		ka, kb := aCols[ia], bCols[ib]
		if ka >= limit || kb >= limit {
			break
		}
		switch {
		case ka == kb:
			s += aVals[ia] * bVals[ib] * d[ka]
			ia++
			ib++
		case ka < kb:
			ia++
		default:
			ib++
		}
	}
	return s
}

// rowsToFactor converts row-major triangular storage into the CSC
// Factor layout.
func rowsToFactor(n int, rowCols [][]int, rowVals [][]float64, d []float64, clamped int) *Factor {
	colCount := make([]int, n)
	nnz := 0
	for i := 0; i < n; i++ {
		for _, j := range rowCols[i] {
			colCount[j]++
			nnz++
		}
	}
	f := &Factor{
		N:       n,
		ColPtr:  make([]int, n+1),
		RowIdx:  make([]int, nnz),
		Val:     make([]float64, nnz),
		D:       d,
		Clamped: clamped,
	}
	for j := 0; j < n; j++ {
		f.ColPtr[j+1] = f.ColPtr[j] + colCount[j]
	}
	next := append([]int(nil), f.ColPtr[:n]...)
	// Visiting rows in ascending order keeps row indices sorted within
	// each column.
	for i := 0; i < n; i++ {
		for t, j := range rowCols[i] {
			f.RowIdx[next[j]] = i
			f.Val[next[j]] = rowVals[i][t]
			next[j]++
		}
	}
	return f
}

// CompleteLDL computes the exact sparse LDLᵀ factorization with
// fill-in (up-looking algorithm with elimination-tree pattern
// computation). This is the paper's Modified Cholesky factorization
// (Section 4.6.1): dropping the pattern restriction of Equation 6
// makes the factorization exact, so MogulE reproduces the
// inverse-matrix ranking scores. minPivot <= 0 selects
// DefaultMinPivot.
func CompleteLDL(w *sparse.CSR, minPivot float64) (*Factor, error) {
	if err := checkSquareSymmetricInput(w); err != nil {
		return nil, err
	}
	if minPivot <= 0 {
		minPivot = DefaultMinPivot
	}
	n := w.Rows

	// Symbolic pass: elimination tree and per-column fill counts.
	parent := make([]int, n)
	flag := make([]int, n)
	colCount := make([]int, n)
	for i := range parent {
		parent[i] = -1
		flag[i] = -1
	}
	for k := 0; k < n; k++ {
		flag[k] = k
		cols, _ := w.Row(k)
		for _, i := range cols {
			if i >= k {
				break
			}
			for j := i; flag[j] != k; j = parent[j] {
				if parent[j] == -1 {
					parent[j] = k
				}
				colCount[j]++
				flag[j] = k
			}
		}
	}

	f := &Factor{
		N:      n,
		ColPtr: make([]int, n+1),
		D:      make([]float64, n),
	}
	for j := 0; j < n; j++ {
		f.ColPtr[j+1] = f.ColPtr[j] + colCount[j]
	}
	f.RowIdx = make([]int, f.ColPtr[n])
	f.Val = make([]float64, f.ColPtr[n])

	// Numeric pass (up-looking, one row of L per step).
	y := make([]float64, n)   // dense accumulator for row k
	pattern := make([]int, n) // scratch for one etree path
	stack := make([]int, n)   // row pattern in topological order
	lnz := make([]int, n)     // entries filled so far per column
	for i := range flag {
		flag[i] = -1
	}
	for k := 0; k < n; k++ {
		top := n
		flag[k] = k
		var dk float64
		cols, vals := w.Row(k)
		for t, i := range cols {
			if i > k {
				break
			}
			if i == k {
				dk = vals[t]
				continue
			}
			y[i] += vals[t]
			ln := 0
			for j := i; flag[j] != k; j = parent[j] {
				pattern[ln] = j
				ln++
				flag[j] = k
			}
			for ln > 0 {
				ln--
				top--
				stack[top] = pattern[ln]
			}
		}
		// Solve the triangular system for row k; stack[top:] is the
		// pattern in topological (ascending-dependency) order.
		for ; top < n; top++ {
			i := stack[top]
			yi := y[i]
			y[i] = 0
			lo := f.ColPtr[i]
			hi := lo + lnz[i]
			for p := lo; p < hi; p++ {
				y[f.RowIdx[p]] -= f.Val[p] * yi
			}
			lki := yi / f.D[i]
			dk -= lki * yi
			f.RowIdx[hi] = k
			f.Val[hi] = lki
			lnz[i]++
		}
		if dk < minPivot {
			dk = minPivot
			f.Clamped++
		}
		f.D[k] = dk
	}
	return f, nil
}
