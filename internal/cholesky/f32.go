package cholesky

import "mogul/internal/vec"

// Mixed-precision factor storage. In f32 mode the strictly-lower
// values of L live in Val32 and Val is nil; the diagonal D stays
// float64 (it is O(n), not O(nnz), and pivot precision is what keeps
// the substitutions stable). The substitution bodies dispatch on
// Val32, widening each stored value in registers — accumulation stays
// float64 under the vec four-lane contract, so the only difference
// from the f64 factor is the one rounding applied by Narrow32.

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

// Col32 returns the strictly-lower entries of column j of an f32
// factor (rows and values alias internal storage).
func (f *Factor) Col32(j int) (rows []int, vals []float32) {
	lo, hi := f.ColPtr[j], f.ColPtr[j+1]
	return f.RowIdx[lo:hi], f.Val32[lo:hi]
}

// ColWidened writes column j's values into buf (widening when f32) and
// returns rows plus the values; for cold paths that want one code path
// over both precisions.
func (f *Factor) ColWidened(j int, buf []float64) (rows []int, vals []float64) {
	if f.Val32 == nil {
		return f.Col(j)
	}
	rows32, v32 := f.Col32(j)
	return rows32, vec.Widen64(buf, v32)
}

// forwardInPlace32/backwardInPlace32 mirror the f64 bodies exactly —
// same loop structure, same kernels, f32 storage.

func (f *Factor) forwardInPlace32(v []float64) {
	for j := 0; j < f.N; j++ {
		v[j] /= f.D[j]
		vj := v[j]
		if vj == 0 {
			continue
		}
		rows, vals := f.Col32(j)
		vec.ScatterAxpy32(v, rows, vals, -f.D[j]*vj)
	}
}

func (f *Factor) backwardInPlace32(v []float64) {
	for i := f.N - 1; i >= 0; i-- {
		rows, vals := f.Col32(i)
		v[i] -= vec.DotGather32(vals, rows, v)
	}
}

// nVals returns the stored value count regardless of precision.
func (f *Factor) nVals() int {
	if f.Val32 != nil {
		return len(f.Val32)
	}
	return len(f.Val)
}
