package vec

import (
	"fmt"
)

// The float32 side of the kernel family: the entry points that
// dispatch to an assembly body of their own (SquaredEuclideanQ32, Dot32
// and the flat-matrix batch forms), and the conversions into and out of
// float32 storage. The kernels whose one body serves both widths are
// the generic ones in kernels.go; kernels.go also states the storage
// and accumulation contract. Query-side operands stay []float64.

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
	dim := len(q)
	if dim == 0 {
		panic("vec: batch over zero-dimensional query")
	}
	if len(pts) != dim*len(out) {
		panic(fmt.Sprintf("vec: batch matrix length %d for %d rows of dim %d", len(pts), len(out), dim))
	}
	i := 0
	for ; i+4 <= len(out); i += 4 {
		p := pts[i*dim : (i+4)*dim]
		sqdistQ32x4(q, p[:dim], p[dim:2*dim], p[2*dim:3*dim], p[3*dim:], (*[4]float64)(out[i:i+4]))
	}
	for ; i < len(out); i++ {
		out[i] = sqdistQ32(q, pts[i*dim:(i+1)*dim])
	}
}

// SquaredEuclideanRows32 writes the squared L2 distance from q to row
// ids[i] of the flat row-major float32 matrix pts (stride len(q)) into
// out[i] — SquaredEuclideanBatch32 over a candidate list, four rows
// per kernel pass. len(out) must equal len(ids).
func SquaredEuclideanRows32(q []float64, pts []float32, ids []int, out []float64) {
	dim := len(q)
	if dim == 0 {
		panic("vec: batch over zero-dimensional query")
	}
	if len(out) != len(ids) {
		panic(fmt.Sprintf("vec: batch output length %d for %d ids", len(out), len(ids)))
	}
	row := func(id int) []float32 { return pts[id*dim : (id+1)*dim] }
	i := 0
	for ; i+4 <= len(ids); i += 4 {
		sqdistQ32x4(q, row(ids[i]), row(ids[i+1]), row(ids[i+2]), row(ids[i+3]), (*[4]float64)(out[i:i+4]))
	}
	for ; i < len(ids); i++ {
		out[i] = sqdistQ32(q, row(ids[i]))
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

// Unflatten32 widens a flat row-major float32 matrix into float64
// point vectors — the boundary crossing used when f32 storage feeds a
// float64 build stage (compaction, k-means re-seeding).
func Unflatten32(flat []float32, dim int) []Vector {
	if dim <= 0 || len(flat)%dim != 0 {
		panic(fmt.Sprintf("vec: flat length %d not a multiple of dim %d", len(flat), dim))
	}
	n := len(flat) / dim
	points := make([]Vector, n)
	for i := 0; i < n; i++ {
		points[i] = Widen64(nil, flat[i*dim:(i+1)*dim])
	}
	return points
}
