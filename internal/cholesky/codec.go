package cholesky

import (
	"fmt"

	"mogul/internal/binio"
)

// Binary codec for LDL^T factors — a leaf record of the Mogul index
// file format (docs/FORMAT.md). The container frames and checksums the
// record; the codec validates the factor's own invariants so a
// corrupted file fails loudly instead of producing wrong solves.

// Encode writes the factor as: N, Clamped (int64), then ColPtr, RowIdx,
// the strictly-lower values (Float32s when f32 — format version 4 only
// — Floats otherwise) and D as length-prefixed slices.
func (f *Factor) Encode(bw *binio.Writer, f32 bool) error {
	bw.Int(f.N)
	bw.Int(f.Clamped)
	bw.Ints(f.ColPtr)
	bw.Ints(f.RowIdx)
	if f32 {
		if f.Val32 == nil {
			return fmt.Errorf("cholesky: f32 write of a float64 factor")
		}
		bw.Float32s(f.Val32)
	} else {
		if f.Val == nil && len(f.RowIdx) > 0 {
			return fmt.Errorf("cholesky: f64 write of an f32 factor")
		}
		bw.Floats(f.Val)
	}
	bw.Floats(f.D)
	return bw.Err()
}

// ReadFactor reads a factor written by Encode in the same precision,
// using zero-copy views where the reader allows, and validates its
// structural invariants.
func ReadFactor(br *binio.Reader, f32 bool) (*Factor, error) {
	n := br.Int()
	clamped := br.Int()
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("cholesky: reading factor header: %w", err)
	}
	if n < 0 || n > binio.MaxCount || clamped < 0 || clamped > n {
		return nil, fmt.Errorf("cholesky: corrupt factor header (n=%d, clamped=%d)", n, clamped)
	}
	f := &Factor{
		N:       n,
		Clamped: clamped,
		ColPtr:  br.IntsView(n + 1),
		RowIdx:  br.IntsView(binio.MaxCount),
	}
	if f32 {
		f.Val32 = br.Float32sView(binio.MaxCount)
	} else {
		f.Val = br.FloatsView(binio.MaxCount)
	}
	f.D = br.FloatsView(n)
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("cholesky: reading factor body: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// Validate checks the Factor invariants: ColPtr has length N+1 and is
// non-decreasing from 0 to NNZ; RowIdx and Val have equal length; D
// has length N; row indices within each column j are strictly
// increasing and lie in (j, N).
func (f *Factor) Validate() error {
	if f.N < 0 {
		return fmt.Errorf("cholesky: negative dimension %d", f.N)
	}
	if len(f.ColPtr) != f.N+1 {
		return fmt.Errorf("cholesky: %d column pointers for n=%d", len(f.ColPtr), f.N)
	}
	if len(f.RowIdx) != f.nVals() {
		return fmt.Errorf("cholesky: %d row indices but %d values", len(f.RowIdx), f.nVals())
	}
	if len(f.D) != f.N {
		return fmt.Errorf("cholesky: diagonal length %d for n=%d", len(f.D), f.N)
	}
	if f.ColPtr[0] != 0 || f.ColPtr[f.N] != len(f.RowIdx) {
		return fmt.Errorf("cholesky: column pointers span [%d,%d], want [0,%d]", f.ColPtr[0], f.ColPtr[f.N], len(f.RowIdx))
	}
	for j := 0; j < f.N; j++ {
		lo, hi := f.ColPtr[j], f.ColPtr[j+1]
		if lo > hi {
			return fmt.Errorf("cholesky: column %d has negative extent", j)
		}
		prev := j // entries are strictly lower: rows must exceed j
		for k := lo; k < hi; k++ {
			i := f.RowIdx[k]
			if i <= prev || i >= f.N {
				return fmt.Errorf("cholesky: column %d row index %d outside (%d,%d)", j, i, prev, f.N)
			}
			prev = i
		}
	}
	return nil
}
