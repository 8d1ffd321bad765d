package vec

import (
	"fmt"
	"math"

	"mogul/internal/binio"
)

// Rows is n stored rows of one width in either storage precision — the
// stored feature vectors of every engine, the EMR engine's anchor
// weights and the spectral engine's embedding rows. Its methods are the
// only place a stored row's precision and layout are branched on; each
// calls the kernel of that precision directly (kernels.go states the
// contract that makes the two widths agree). float32 rows live in one
// flat row-major slice. float64 rows are either the caller's vectors,
// aliased and never copied (the points a build is given), or one flat
// row-major slice (anchor weights, embedding rows, a decoded point
// matrix) — never a per-row slice header over a flat array.
//
// A Rows is not safe for concurrent mutation; the engines append under
// their write lock and read under their read lock.
type Rows struct {
	width int
	vecs  []Vector
	f64   []float64
	f32   []float32
}

// AliasRows holds vecs, each of the given width, as float64 rows without
// copying them. Their capacity is clipped, so Append never writes into
// whatever the caller keeps behind them.
func AliasRows(vecs []Vector, width int) Rows {
	return Rows{width: width, vecs: vecs[:len(vecs):len(vecs)]}
}

// FlatRows holds data as float64 rows of the given width, row-major.
func FlatRows(data []float64, width int) Rows { return Rows{width: width, f64: data} }

// Len returns the number of rows.
func (r *Rows) Len() int {
	switch {
	case r.f32 != nil:
		return len(r.f32) / r.width
	case r.f64 != nil:
		return len(r.f64) / r.width
	}
	return len(r.vecs)
}

// Width returns the row width.
func (r *Rows) Width() int { return r.width }

// F32 reports whether the rows are stored as float32.
func (r *Rows) F32() bool { return r.f32 != nil }

func (r *Rows) row32(i int) []float32 {
	return r.f32[i*r.width : (i+1)*r.width : (i+1)*r.width]
}

func (r *Rows) row64(i int) []float64 {
	if r.vecs != nil {
		return r.vecs[i]
	}
	return r.f64[i*r.width : (i+1)*r.width : (i+1)*r.width]
}

// Row returns row i in float64: the stored row itself for float64 rows
// (read-only; an append to it reallocates), a widened copy in buf
// (reallocated when short) for float32 ones.
func (r *Rows) Row(i int, buf []float64) []float64 {
	if r.f32 != nil {
		return Widen64(buf, r.row32(i))
	}
	return r.row64(i)
}

// checkQuery panics unless q has the row width: the batch kernels take
// their stride from len(q).
func (r *Rows) checkQuery(q []float64) {
	if len(q) != r.width {
		dimMismatch(r.width, len(q))
	}
}

// SqDist returns the squared L2 distance from q to row i.
func (r *Rows) SqDist(q []float64, i int) float64 {
	if r.f32 != nil {
		return SquaredEuclideanQ32(q, r.row32(i))
	}
	return SquaredEuclidean(q, r.row64(i))
}

// SqDistIDs writes the squared L2 distance from q to row ids[t] into
// out[t], four rows per kernel pass. len(out) must equal len(ids).
func (r *Rows) SqDistIDs(q []float64, ids []int, out []float64) {
	r.checkQuery(q)
	switch {
	case r.f32 != nil:
		SquaredEuclideanRows32(q, r.f32, ids, out)
	case r.f64 != nil:
		if len(out) != len(ids) {
			panic(fmt.Sprintf("vec: batch output length %d for %d ids", len(out), len(ids)))
		}
		sqdistFlat(q, r.f64, ids, out, sqdist, sqdist4)
	default:
		SquaredEuclideanRows(q, r.vecs, ids, out)
	}
}

// SqDistPrefix writes the squared L2 distance from q to each of the
// first len(out) rows into out, four rows per kernel pass.
func (r *Rows) SqDistPrefix(q []float64, out []float64) {
	r.checkQuery(q)
	n := len(out)
	switch {
	case r.f32 != nil:
		SquaredEuclideanBatch32(q, r.f32[:n*r.width], out)
	case r.f64 != nil:
		sqdistFlat(q, r.f64[:n*r.width], nil, out, sqdist, sqdist4)
	default:
		SquaredEuclideanBatch(q, r.vecs[:n], out)
	}
}

// Dot returns row i . x under the four-lane contract.
func (r *Rows) Dot(i int, x []float64) float64 {
	if r.f32 != nil {
		return Dot32(x, r.row32(i))
	}
	return Dot(r.row64(i), x)
}

// Axpy computes y += a * row i.
func (r *Rows) Axpy(y []float64, a float64, i int) {
	if r.f32 != nil {
		Axpy(y, a, r.row32(i))
		return
	}
	Axpy(y, a, r.row64(i))
}

// DotGather returns sum_t row_i[t] * z[idx[t]] under the four-lane
// contract.
func (r *Rows) DotGather(i int, idx []int32, z []float64) float64 {
	if r.f32 != nil {
		return DotGather(r.row32(i), idx, z)
	}
	return DotGather(r.row64(i), idx, z)
}

// Append stores v, of the row width, as the next row: float32 rows
// round it once, flat float64 rows copy it, and aliased rows take v
// itself, which the caller hands over. A flat slice without spare
// capacity — a view of a mapped file — is reallocated, never written
// past its end.
func (r *Rows) Append(v []float64) {
	switch {
	case r.f32 != nil:
		for _, x := range v {
			r.f32 = append(r.f32, float32(x))
		}
	case r.f64 != nil:
		r.f64 = append(r.f64, v...)
	default:
		r.vecs = append(r.vecs, v)
	}
}

// Narrow returns the rows rounded once into flat float32 storage — the
// one lossy step of the mixed-precision mode. float32 rows return
// themselves, and no rows stay no rows.
func (r *Rows) Narrow() Rows {
	switch {
	case r.f32 != nil:
		return *r
	case r.f64 != nil:
		return Rows{width: r.width, f32: Narrow32(nil, r.f64)}
	}
	flat, _ := Flatten32(r.vecs)
	return Rows{width: r.width, f32: flat}
}

// Encode writes the rows as one record of a container (docs/FORMAT.md):
// float32 rows as one flat float32 array, float64 rows as one
// length-prefixed row each when perRow and as one flat float64 array
// otherwise. f32 is the precision the container declares; rows stored
// in the other one are refused. The row count and width are the
// container's to record.
func (r *Rows) Encode(bw *binio.Writer, f32, perRow bool) error {
	if r.Len() > 0 && r.F32() != f32 {
		return fmt.Errorf("vec: writing rows as f32=%v, stored as f32=%v", f32, r.F32())
	}
	for i, v := range r.vecs {
		if len(v) != r.width {
			return fmt.Errorf("vec: row %d has %d values, want %d", i, len(v), r.width)
		}
	}
	switch {
	case r.f32 != nil:
		bw.Float32s(r.f32)
	case perRow:
		for i, n := 0, r.Len(); i < n; i++ {
			bw.Floats(r.row64(i))
		}
	case r.f64 != nil:
		bw.Floats(r.f64)
	default:
		flat := make([]float64, 0, len(r.vecs)*r.width)
		for _, v := range r.vecs {
			flat = append(flat, v...)
		}
		bw.Floats(flat)
	}
	return bw.Err()
}

// ReadRows decodes n rows of the given width that Encode wrote in the
// same precision and layout. A flat matrix comes back as a view of the
// reader's buffer where the reader allows (binio.Reader.FloatsView) and
// is not scanned: a non-finite value there degrades a score but can
// never panic, and a scan would fault in every page of a mapped file.
// Per-row records are copied as they arrive, and a non-finite component
// is refused. No rows decode to the zero Rows.
func ReadRows(br *binio.Reader, n, width int, f32, perRow bool) (Rows, error) {
	if n < 0 || n > 0 && (width < 1 || n > binio.MaxCount/width) {
		return Rows{}, fmt.Errorf("vec: corrupt row matrix shape %dx%d", n, width)
	}
	if perRow && !f32 {
		// Grow as rows arrive rather than trusting n for the allocation.
		vecs := make([]Vector, 0, min(n, 1<<16))
		for i := 0; i < n; i++ {
			v := br.Floats(width)
			if err := br.Err(); err != nil {
				return Rows{}, fmt.Errorf("vec: reading row %d: %w", i, err)
			}
			if len(v) != width {
				return Rows{}, fmt.Errorf("vec: row %d has %d values, want %d", i, len(v), width)
			}
			for _, x := range v {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return Rows{}, fmt.Errorf("vec: row %d has non-finite component %g", i, x)
				}
			}
			vecs = append(vecs, v)
		}
		if n == 0 {
			return Rows{}, nil
		}
		return AliasRows(vecs, width), nil
	}
	r := FlatRows(nil, width)
	if f32 {
		r.f32 = br.Float32sView(n * width)
	} else {
		r.f64 = br.FloatsView(n * width)
	}
	if err := br.Err(); err != nil {
		return Rows{}, fmt.Errorf("vec: reading row matrix: %w", err)
	}
	if got := len(r.f32) + len(r.f64); got != n*width {
		return Rows{}, fmt.Errorf("vec: row matrix carries %d values, want %d", got, n*width)
	}
	if n == 0 {
		return Rows{}, nil
	}
	return r, nil
}
