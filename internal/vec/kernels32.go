package vec

import (
	"fmt"
)

// The float32 side of the kernel family: the entry points that
// dispatch to an assembly body of their own (SquaredEuclideanQ32, Dot32
// and the flat-matrix batch forms), and the conversions into and out of
// float32 storage. The kernels with one generic entry point for both
// widths are in kernels.go (Axpy picks its width's assembly body
// there); kernels.go also states the storage and accumulation contract.
// Query-side operands stay []float64.

// SquaredEuclideanQ32 returns the squared L2 distance between a
// float64 query and a float32 stored point — the serving-path shape,
// where the query arrives in full precision and only the stored point
// was rounded.
func SquaredEuclideanQ32(q []float64, p []float32) float64 {
	if len(q) != len(p) {
		panic(fmt.Sprintf("vec: distance dimension mismatch %d != %d", len(q), len(p)))
	}
	return sqdistQ32(q, p)
}

// SquaredEuclideanBatch32 writes the squared L2 distance from q to
// every row of the flat row-major float32 matrix pts (stride len(q))
// into out, four rows per kernel pass. len(pts) must equal
// len(q)*len(out). This is the one-query-versus-many form over f32
// storage: brute-force scans and attachment sweeps stream pts once at
// half the float64 traffic.
func SquaredEuclideanBatch32(q []float64, pts []float32, out []float64) {
	if len(pts) != len(q)*len(out) {
		panic(fmt.Sprintf("vec: batch matrix length %d for %d rows of dim %d", len(pts), len(out), len(q)))
	}
	sqdistFlat(q, pts, nil, out, sqdistQ32, sqdistQ32x4)
}

// SquaredEuclideanRows32 writes the squared L2 distance from q to row
// ids[i] of the flat row-major float32 matrix pts (stride len(q)) into
// out[i] — SquaredEuclideanBatch32 over a candidate list, four rows
// per kernel pass. len(out) must equal len(ids).
func SquaredEuclideanRows32(q []float64, pts []float32, ids []int, out []float64) {
	if len(out) != len(ids) {
		panic(fmt.Sprintf("vec: batch output length %d for %d ids", len(out), len(ids)))
	}
	sqdistFlat(q, pts, ids, out, sqdistQ32, sqdistQ32x4)
}

// sqdistFlat is the body of the flat-matrix batch forms: the squared L2
// distance from q to row ids[t] of the row-major matrix pts (stride
// len(q)), or to row t when ids is nil, into out[t], through four, the
// four-row kernel of pts's storage width, and one, its one-row kernel.
func sqdistFlat[P Float](q []float64, pts []P, ids []int, out []float64,
	one func([]float64, []P) float64, four func(q []float64, p0, p1, p2, p3 []P, out *[4]float64)) {
	dim := len(q)
	if dim == 0 {
		panic("vec: batch over zero-dimensional query")
	}
	row := func(t int) []P {
		if ids != nil {
			t = ids[t]
		}
		return pts[t*dim : (t+1)*dim]
	}
	t := 0
	for ; t+4 <= len(out); t += 4 {
		four(q, row(t), row(t+1), row(t+2), row(t+3), (*[4]float64)(out[t:t+4]))
	}
	for ; t < len(out); t++ {
		out[t] = one(q, row(t))
	}
}

// Dot32 returns the inner product of a float64 vector with a float32
// vector — the spectral engine's coefficient·embedding-row scan shape.
func Dot32(a []float64, b []float32) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Dot dimension mismatch %d != %d", len(a), len(b)))
	}
	return dot32(a, b)
}

// DotGather32I32 is DotGather over float32 values and int32 indices.
func DotGather32I32(val []float32, idx []int32, z []float64) float64 { return DotGather(val, idx, z) }

// Narrow32 rounds a float64 slice into dst (allocating when dst is
// short) — the one lossy step of the mixed-precision mode, applied
// exactly once when an array enters f32 storage.
func Narrow32(dst []float32, src []float64) []float32 {
	if cap(dst) < len(src) {
		dst = make([]float32, len(src))
	}
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float32(v)
	}
	return dst
}

// Widen64 converts a float32 slice back up to float64 (exact).
func Widen64(dst []float64, src []float32) []float64 {
	if cap(dst) < len(src) {
		dst = make([]float64, len(src))
	}
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float64(v)
	}
	return dst
}

// Flatten32 rounds a point set into one flat row-major float32 matrix
// and returns it with the common dimension. Every point must share one
// dimension; a nil or empty set returns (nil, 0).
func Flatten32(points []Vector) ([]float32, int) {
	if len(points) == 0 {
		return nil, 0
	}
	dim := len(points[0])
	flat := make([]float32, len(points)*dim)
	for i, p := range points {
		if len(p) != dim {
			panic(fmt.Sprintf("vec: point %d has dim %d, want %d", i, len(p), dim))
		}
		row := flat[i*dim : (i+1)*dim]
		for j, v := range p {
			row[j] = float32(v)
		}
	}
	return flat, dim
}
