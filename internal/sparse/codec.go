package sparse

import (
	"fmt"

	"mogul/internal/binio"
)

// Binary codecs for CSR matrices and permutations. These are the
// leaf records of the Mogul index file format (docs/FORMAT.md); the
// container (internal/binio) frames them, so the records themselves
// carry no magic or checksum — only enough structure to be validated
// on their own.

// Encode writes the matrix record: rows, cols (int64), then RowPtr, Col
// and the values as length-prefixed slices — Float32s when f32 (format
// version 4 only), Floats otherwise.
func (m *CSR) Encode(bw *binio.Writer, f32 bool) error {
	bw.Int(m.Rows)
	bw.Int(m.Cols)
	bw.Ints(m.RowPtr)
	bw.Ints(m.Col)
	if f32 {
		if m.Val32 == nil && len(m.Col) > 0 {
			return fmt.Errorf("sparse: f32 write of a float64 matrix")
		}
		bw.Float32s(m.Val32)
	} else {
		if m.Val == nil && len(m.Col) > 0 {
			return fmt.Errorf("sparse: f64 write of an f32 matrix")
		}
		bw.Floats(m.Val)
	}
	return bw.Err()
}

// ReadCSR reads a matrix written by Encode in the same precision, using
// zero-copy views where the reader allows, and validates its structural
// invariants (monotone row pointers, in-range and strictly increasing
// column indices per row).
func ReadCSR(br *binio.Reader, f32 bool) (*CSR, error) {
	rows := br.Int()
	cols := br.Int()
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("sparse: reading matrix header: %w", err)
	}
	if rows < 0 || cols < 0 || rows > binio.MaxCount || cols > binio.MaxCount {
		return nil, fmt.Errorf("sparse: corrupt matrix dimensions %dx%d", rows, cols)
	}
	m := &CSR{
		Rows:   rows,
		Cols:   cols,
		RowPtr: br.IntsView(rows + 1),
		Col:    br.IntsView(binio.MaxCount),
	}
	if f32 {
		m.Val32 = br.Float32sView(binio.MaxCount)
	} else {
		m.Val = br.FloatsView(binio.MaxCount)
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("sparse: reading matrix body: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Validate checks the CSR structural invariants: RowPtr has length
// Rows+1, starts at 0, is non-decreasing and ends at NNZ; Col and Val
// have equal length; column indices are in range and strictly
// increasing within each row.
func (m *CSR) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("sparse: negative dimensions %dx%d", m.Rows, m.Cols)
	}
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("sparse: %d row pointers for %d rows", len(m.RowPtr), m.Rows)
	}
	if len(m.Col) != m.nVals() {
		return fmt.Errorf("sparse: %d column indices but %d values", len(m.Col), m.nVals())
	}
	if m.RowPtr[0] != 0 || m.RowPtr[m.Rows] != len(m.Col) {
		return fmt.Errorf("sparse: row pointers span [%d,%d], want [0,%d]", m.RowPtr[0], m.RowPtr[m.Rows], len(m.Col))
	}
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		if lo > hi {
			return fmt.Errorf("sparse: row %d has negative extent", i)
		}
		prev := -1
		for k := lo; k < hi; k++ {
			c := m.Col[k]
			if c < 0 || c >= m.Cols {
				return fmt.Errorf("sparse: row %d has column %d outside [0,%d)", i, c, m.Cols)
			}
			if c <= prev {
				return fmt.Errorf("sparse: row %d columns not strictly increasing at %d", i, c)
			}
			prev = c
		}
	}
	return nil
}

// Encode writes the permutation as its NewToOld slice; OldToNew is
// rebuilt (and the bijection re-validated) on read.
func (p *Permutation) Encode(bw *binio.Writer) error {
	bw.Ints(p.NewToOld)
	return bw.Err()
}

// ReadPermutation reads a permutation written by Encode.
func ReadPermutation(br *binio.Reader) (*Permutation, error) {
	newToOld := br.Ints(binio.MaxCount)
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("sparse: reading permutation: %w", err)
	}
	return NewPermutation(newToOld)
}
