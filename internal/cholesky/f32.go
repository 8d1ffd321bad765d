package cholesky

import "mogul/internal/vec"

// Mixed-precision factor storage. In f32 mode the strictly-lower
// values of L live in Val32 and Val is nil; the diagonal D stays
// float64 (it is O(n), not O(nnz), and pivot precision is what keeps
// the substitutions stable). The substitutions (cholesky.go) are one
// body over either value slice, picked once per solve; each stored
// value widens in registers and accumulation stays float64 under the
// vec four-lane contract, so the only difference from the f64 factor is
// the one rounding applied by Narrow32.

// F32 reports whether the factor stores its values as float32.
func (f *Factor) F32() bool { return f.Val32 != nil }

// Narrow32 converts the factor to f32 storage in place, freeing the
// float64 values. Idempotent.
func (f *Factor) Narrow32() {
	if f.Val32 != nil {
		return
	}
	f.Val32 = vec.Narrow32(nil, f.Val)
	f.Val = nil
}

// ColWidened writes column j's values into buf (widening when f32) and
// returns rows plus the values; for cold paths that want one code path
// over both precisions.
func (f *Factor) ColWidened(j int, buf []float64) (rows []int, vals []float64) {
	if f.Val32 == nil {
		return f.Col(j)
	}
	lo, hi := f.ColPtr[j], f.ColPtr[j+1]
	return f.RowIdx[lo:hi], vec.Widen64(buf, f.Val32[lo:hi])
}

// nVals returns the stored value count regardless of precision.
func (f *Factor) nVals() int {
	if f.Val32 != nil {
		return len(f.Val32)
	}
	return len(f.Val)
}
