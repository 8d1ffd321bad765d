package sparse

import "mogul/internal/vec"

// Mixed-precision CSR storage. A narrowed matrix keeps its structure
// (RowPtr, Col) wide and stores values in Val32 with Val nil. The few
// operations that run against serving-time matrices read either: MulVecTo
// and RowSums are one generic body each (sparse.go) over the value slice
// they pick once per call, and Row32 hands out f32 views. Matrices are
// always ASSEMBLED in float64 and narrowed once; the build pipeline
// never sees an f32 matrix.

// Narrow32 converts the values to float32 storage in place.
// Idempotent.
func (m *CSR) Narrow32() {
	if m.Val32 != nil {
		return
	}
	m.Val32 = vec.Narrow32(nil, m.Val)
	m.Val = nil
}

// F32 reports whether the matrix stores float32 values.
func (m *CSR) F32() bool { return m.Val32 != nil }

// nVals returns the stored value count regardless of precision.
func (m *CSR) nVals() int {
	if m.Val32 != nil {
		return len(m.Val32)
	}
	return len(m.Val)
}

// Widen64 returns a float64-valued view of the matrix: the receiver
// itself when it already stores float64, otherwise a copy sharing
// RowPtr/Col with values widened into a fresh Val slice. Cold paths
// (CG system-matrix rebuilds, compaction) use it to feed f64-only
// pipelines.
func (m *CSR) Widen64() *CSR {
	if m.Val32 == nil {
		return m
	}
	return &CSR{
		RowPtr: m.RowPtr,
		Col:    m.Col,
		Val:    vec.Widen64(nil, m.Val32),
		Rows:   m.Rows,
		Cols:   m.Cols,
	}
}

// Row32 returns the column indices and f32 values of row i (views).
func (m *CSR) Row32(i int) (cols []int, vals []float32) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.Col[lo:hi], m.Val32[lo:hi]
}
