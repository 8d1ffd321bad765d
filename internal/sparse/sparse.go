// Package sparse implements the compressed sparse row (CSR) matrices
// and permutations that Mogul is built on.
//
// The k-NN graph adjacency matrix A, the normalized system matrix
// W = I - alpha*C^{-1/2} A C^{-1/2}, and the triangular Cholesky
// factors all have O(n) non-zero entries (paper Section 4.2.1); CSR
// keeps the memory cost at O(n) as Theorem 3 requires.
package sparse

import (
	"fmt"
	"math"
	"sort"

	"mogul/internal/vec"
)

// Coord is a single (row, col, value) entry used while assembling a
// matrix in coordinate (COO) form.
type Coord struct {
	Row, Col int
	Val      float64
}

// CSR is a compressed sparse row matrix. Column indices within each row
// are stored in strictly increasing order.
type CSR struct {
	// RowPtr has length Rows+1; the entries of row i live in
	// Col[RowPtr[i]:RowPtr[i+1]] and Val[RowPtr[i]:RowPtr[i+1]].
	RowPtr []int
	// Col holds the column index of each stored entry.
	Col []int
	// Val holds the value of each stored entry. In mixed-precision
	// mode (f32.go) Val is nil and the values live in Val32.
	Val []float64
	// Val32 holds the values as float32 in mixed-precision mode.
	Val32 []float32
	// Rows and Cols are the matrix dimensions.
	Rows, Cols int
}

// NewFromCoords assembles a rows x cols CSR matrix from coordinate
// entries. Duplicate (row, col) pairs are summed. Entries that sum to
// exactly zero are kept; out-of-range coordinates cause an error.
func NewFromCoords(rows, cols int, entries []Coord) (*CSR, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("sparse: negative dimensions %dx%d", rows, cols)
	}
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) outside %dx%d matrix", e.Row, e.Col, rows, cols)
		}
	}
	sorted := make([]Coord, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &CSR{
		RowPtr: make([]int, rows+1),
		Rows:   rows,
		Cols:   cols,
	}
	m.Col = make([]int, 0, len(sorted))
	m.Val = make([]float64, 0, len(sorted))
	for i := 0; i < len(sorted); {
		j := i
		sum := 0.0
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			sum += sorted[j].Val
			j++
		}
		m.Col = append(m.Col, sorted[i].Col)
		m.Val = append(m.Val, sum)
		m.RowPtr[sorted[i].Row+1]++
		i = j
	}
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m, nil
}

// Identity returns the n x n identity matrix.
func Identity(n int) *CSR {
	m := &CSR{
		RowPtr: make([]int, n+1),
		Col:    make([]int, n),
		Val:    make([]float64, n),
		Rows:   n,
		Cols:   n,
	}
	for i := 0; i < n; i++ {
		m.RowPtr[i+1] = i + 1
		m.Col[i] = i
		m.Val[i] = 1
	}
	return m
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Col) }

// Row returns the column indices and values of row i. The returned
// slices alias the matrix storage and must not be modified.
func (m *CSR) Row(i int) (cols []int, vals []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.Col[lo:hi], m.Val[lo:hi]
}

// At returns the (i, j) element, using binary search within row i.
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("sparse: At(%d,%d) outside %dx%d matrix", i, j, m.Rows, m.Cols))
	}
	cols, vals := m.Row(i)
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return vals[k]
	}
	return 0
}

// Clone returns a deep copy of the matrix.
func (m *CSR) Clone() *CSR {
	out := &CSR{
		RowPtr: append([]int(nil), m.RowPtr...),
		Col:    append([]int(nil), m.Col...),
		Rows:   m.Rows,
		Cols:   m.Cols,
	}
	if m.Val32 != nil {
		out.Val32 = append([]float32(nil), m.Val32...)
	} else {
		out.Val = append([]float64(nil), m.Val...)
	}
	return out
}

// MulVec computes y = M*x. It panics when dimensions disagree.
func (m *CSR) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch: %d cols vs %d vector", m.Cols, len(x)))
	}
	y := make([]float64, m.Rows)
	m.MulVecTo(y, x)
	return y
}

// MulVecTo computes y = M*x into an existing slice, avoiding an
// allocation in inner loops. len(y) must equal m.Rows.
func (m *CSR) MulVecTo(y, x []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic("sparse: MulVecTo dimension mismatch")
	}
	if m.Val32 != nil {
		mulVec(m, m.Val32, y, x)
	} else {
		mulVec(m, m.Val, y, x)
	}
}

func mulVec[P vec.Float](m *CSR, val []P, y, x []float64) {
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		y[i] = vec.DotGather(val[lo:hi], m.Col[lo:hi], x)
	}
}

// Transpose returns M^T as a new CSR matrix.
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		RowPtr: make([]int, m.Cols+1),
		Col:    make([]int, m.NNZ()),
		Val:    make([]float64, m.NNZ()),
		Rows:   m.Cols,
		Cols:   m.Rows,
	}
	// Count entries per column of m (per row of t).
	for _, c := range m.Col {
		t.RowPtr[c+1]++
	}
	for i := 0; i < m.Cols; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := append([]int(nil), t.RowPtr[:m.Cols]...)
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			c := m.Col[k]
			t.Col[next[c]] = i
			t.Val[next[c]] = m.Val[k]
			next[c]++
		}
	}
	return t
}

// RowSums returns the vector of row sums; for an adjacency matrix this
// is the degree vector C_ii = sum_j A_ij from the paper's Section 3.
func (m *CSR) RowSums() []float64 {
	if m.Val32 != nil {
		return rowSums(m, m.Val32)
	}
	return rowSums(m, m.Val)
}

func rowSums[P vec.Float](m *CSR, val []P) []float64 {
	s := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		s[i] = vec.Sum(val[lo:hi])
	}
	return s
}

// IsSymmetric reports whether the matrix equals its transpose within
// tolerance tol. The k-NN graph adjacency is symmetric by construction
// (undirected edges, Section 3); this is used in validation.
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	t := m.Transpose()
	if t.NNZ() != m.NNZ() {
		// Zero-valued stored entries can legitimately differ in count;
		// fall through to the elementwise comparison below only when
		// structure matches. Compare via At to stay correct regardless.
		for i := 0; i < m.Rows; i++ {
			cols, vals := m.Row(i)
			for k, j := range cols {
				if math.Abs(vals[k]-t.At(i, j)) > tol {
					return false
				}
			}
		}
		return true
	}
	for i := range m.Col {
		if m.Col[i] != t.Col[i] || math.Abs(m.Val[i]-t.Val[i]) > tol {
			return false
		}
	}
	return true
}

// Scale multiplies every stored value by s in place.
func (m *CSR) Scale(s float64) {
	for i := range m.Val {
		m.Val[i] *= s
	}
}

// Dense expands the matrix to a dense row-major [][]float64; intended
// for tests and small validation oracles only.
func (m *CSR) Dense() [][]float64 {
	out := make([][]float64, m.Rows)
	for i := range out {
		out[i] = make([]float64, m.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			out[i][m.Col[k]] += m.Val[k]
		}
	}
	return out
}
