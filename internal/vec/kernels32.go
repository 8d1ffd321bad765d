package vec

import (
	"fmt"
)

// Mixed-precision kernels: float32 STORAGE, float64 ACCUMULATION.
//
// The f32 kernel family exists to halve memory traffic in the hot
// loops — the million-point regime is bandwidth-bound, and every TopK
// streams point vectors, factor columns, anchor rows, or embedding
// rows through these kernels. Storage is []float32; every element is
// widened to float64 in registers before any arithmetic, and all
// accumulation runs in float64 under the SAME fixed four-lane contract
// as the float64 kernels in kernels.go (lane l takes positions ≡ l
// (mod 4), tail folds into lane 0, lanes combine via combineLanes).
// The only difference from the f64 kernels is therefore the one
// float32 rounding applied when the value was stored — which the
// property tests pin by comparing against the float64 reference run on
// widened inputs, where the results must be bit-identical.
//
// Naming: the `32` suffix means float32 VALUES; an `I32` suffix means
// int32 INDICES (gather kernels). Query-side operands stay []float64
// — the query is small and hot in cache, so quantizing it would cost
// accuracy for no bandwidth win; the big streamed operand is the f32
// one.
//
// NaN and Inf flow through untouched (float32->float64 widening is
// exact for them), and length mismatches panic, exactly like the f64
// kernels.

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

// sqdistQ32Go is the Go body of SquaredEuclideanQ32.
func sqdistQ32Go(q []float64, p []float32) float64 {
	p = p[:len(q)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(q); i += 4 {
		d0 := q[i] - float64(p[i])
		d1 := q[i+1] - float64(p[i+1])
		d2 := q[i+2] - float64(p[i+2])
		d3 := q[i+3] - float64(p[i+3])
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(q); i++ {
		d := q[i] - float64(p[i])
		s0 += d * d
	}
	return combineLanes(s0, s1, s2, s3)
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

// dot32Go is the Go body of Dot32.
func dot32Go(a []float64, b []float32) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * float64(b[i])
		s1 += a[i+1] * float64(b[i+1])
		s2 += a[i+2] * float64(b[i+2])
		s3 += a[i+3] * float64(b[i+3])
	}
	for ; i < len(a); i++ {
		s0 += a[i] * float64(b[i])
	}
	return combineLanes(s0, s1, s2, s3)
}

// Axpy32 computes y += a*x with float64 y and float32 x. Elementwise
// updates have no accumulation order, so the unroll changes no
// rounding versus the plain loop.
func Axpy32(y []float64, a float64, x []float32) {
	if len(y) != len(x) {
		panic(fmt.Sprintf("vec: Axpy dimension mismatch %d != %d", len(y), len(x)))
	}
	x = x[:len(y)]
	i := 0
	for ; i+4 <= len(y); i += 4 {
		y[i] += a * float64(x[i])
		y[i+1] += a * float64(x[i+1])
		y[i+2] += a * float64(x[i+2])
		y[i+3] += a * float64(x[i+3])
	}
	for ; i < len(y); i++ {
		y[i] += a * float64(x[i])
	}
}

// Sum32 returns the float64 sum of a float32 slice under the shared
// four-lane contract.
func Sum32(a []float32) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += float64(a[i])
		s1 += float64(a[i+1])
		s2 += float64(a[i+2])
		s3 += float64(a[i+3])
	}
	for ; i < len(a); i++ {
		s0 += float64(a[i])
	}
	return combineLanes(s0, s1, s2, s3)
}

// ScatterAxpy32 computes y[idx[k]] += a * val[k] with float32 stored
// values — the CSC forward-substitution scatter over an f32 factor.
func ScatterAxpy32(y []float64, idx []int, val []float32, a float64) {
	if len(val) != len(idx) {
		panic(fmt.Sprintf("vec: ScatterAxpy lengths %d != %d", len(idx), len(val)))
	}
	idx = idx[:len(val)]
	t := 0
	for ; t+4 <= len(val); t += 4 {
		y[idx[t]] += a * float64(val[t])
		y[idx[t+1]] += a * float64(val[t+1])
		y[idx[t+2]] += a * float64(val[t+2])
		y[idx[t+3]] += a * float64(val[t+3])
	}
	for ; t < len(val); t++ {
		y[idx[t]] += a * float64(val[t])
	}
}

// DotGather32 computes sum_k val[k] * z[idx[k]] with float32 stored
// values and int indices — the CSC back-substitution gather over an
// f32 factor.
func DotGather32(val []float32, idx []int, z []float64) float64 {
	if len(val) != len(idx) {
		panic(fmt.Sprintf("vec: DotGather lengths %d != %d", len(val), len(idx)))
	}
	idx = idx[:len(val)]
	var s0, s1, s2, s3 float64
	t := 0
	for ; t+4 <= len(val); t += 4 {
		s0 += float64(val[t]) * z[idx[t]]
		s1 += float64(val[t+1]) * z[idx[t+1]]
		s2 += float64(val[t+2]) * z[idx[t+2]]
		s3 += float64(val[t+3]) * z[idx[t+3]]
	}
	for ; t < len(val); t++ {
		s0 += float64(val[t]) * z[idx[t]]
	}
	return combineLanes(s0, s1, s2, s3)
}

// DotGather32I32 is DotGather32 over int32 indices — the EMR engine's
// flat H-column scan with f32 attachment weights.
func DotGather32I32(val []float32, idx []int32, z []float64) float64 {
	if len(val) != len(idx) {
		panic(fmt.Sprintf("vec: DotGather lengths %d != %d", len(val), len(idx)))
	}
	idx = idx[:len(val)]
	var s0, s1, s2, s3 float64
	t := 0
	for ; t+4 <= len(val); t += 4 {
		s0 += float64(val[t]) * z[idx[t]]
		s1 += float64(val[t+1]) * z[idx[t+1]]
		s2 += float64(val[t+2]) * z[idx[t+2]]
		s3 += float64(val[t+3]) * z[idx[t+3]]
	}
	for ; t < len(val); t++ {
		s0 += float64(val[t]) * z[idx[t]]
	}
	return combineLanes(s0, s1, s2, s3)
}

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
