package vec

import (
	"fmt"
)

// The accumulation kernels below all share one summation contract: a
// FIXED four-lane unroll where lane l accumulates the entries at
// positions ≡ l (mod 4), the tail folds into lane 0, and the lanes
// combine as (s0+s1)+(s2+s3). The order is part of the numerical
// contract of everything built on top — the EMR engine pins itself
// bit-identical to the in-tree baseline through it, and the
// determinism suites pin parallel builds byte-identical to serial ones
// — so every implementation must reproduce it exactly. It exists
// because the naive sequential loop is a latency-bound dependent add
// chain: four independent accumulators let the CPU overlap the FP
// adds, which is worth ~2-3x on the distance scans and gather-dots that
// dominate build and query time.
//
// The squared-distance and dot kernels (f64 and f32) have two bodies:
// the Go loops here and in kernels32.go, compiled everywhere, and AVX2
// assembly (kernels_amd64.s) that holds the four lanes in one ymm
// register and so gives the same bits. Package init picks the assembly
// once when the CPU and OS support AVX2 (kernels_amd64.go); elsewhere
// the Go bodies are the only ones, and they are the tests' oracle. The
// batch forms score four rows per pass, four independent lane chains
// over one load of the query.
//
// Every Go body hoists its bounds checks by reslicing to a common
// length before the loop, so the unrolled bodies compile without
// per-element checks (BCE-friendly). NaN and Inf flow through
// untouched — the kernels are pure arithmetic, no filtering — which
// the property tests assert.

// combineLanes folds the four accumulator lanes in the FIXED order of
// the summation contract. Every kernel here and in kernels32.go ends
// with it; keeping the expression in one place is what lets the f32
// kernels promise bit-identical accumulation to the f64 reference on
// widened inputs.
func combineLanes(s0, s1, s2, s3 float64) float64 {
	return (s0 + s1) + (s2 + s3)
}

// sqdistGo is the Go body of the squared L2 distance; callers have
// validated len(a) == len(b).
func sqdistGo(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return combineLanes(s0, s1, s2, s3)
}

// SquaredEuclideanBatch writes the squared L2 distance from q to every
// point into out[i] — the one-query-versus-many-points form of the
// distance kernel. Brute-force k-NN scans, k-means assignment and
// seeding sweeps, and anchor attachment all reduce to this shape; one
// call amortizes the per-pair function-call overhead across the whole
// point set and scores four points per kernel pass. len(out) must
// equal len(points) and every point must match dim(q).
func SquaredEuclideanBatch(q Vector, points []Vector, out []float64) {
	if len(out) != len(points) {
		panic(fmt.Sprintf("vec: batch output length %d for %d points", len(out), len(points)))
	}
	i := 0
	for ; i+4 <= len(points); i += 4 {
		p := points[i : i+4 : i+4]
		checkDim(q, p[0])
		checkDim(q, p[1])
		checkDim(q, p[2])
		checkDim(q, p[3])
		sqdist4(q, p[0], p[1], p[2], p[3], (*[4]float64)(out[i:i+4]))
	}
	for ; i < len(points); i++ {
		checkDim(q, points[i])
		out[i] = sqdist(q, points[i])
	}
}

// SquaredEuclideanRows writes the squared L2 distance from q to
// points[ids[i]] into out[i] — SquaredEuclideanBatch over a candidate
// list, four rows per kernel pass. len(out) must equal len(ids) and
// every selected point must match dim(q).
func SquaredEuclideanRows(q Vector, points []Vector, ids []int, out []float64) {
	if len(out) != len(ids) {
		panic(fmt.Sprintf("vec: batch output length %d for %d ids", len(out), len(ids)))
	}
	i := 0
	for ; i+4 <= len(ids); i += 4 {
		p0, p1, p2, p3 := points[ids[i]], points[ids[i+1]], points[ids[i+2]], points[ids[i+3]]
		checkDim(q, p0)
		checkDim(q, p1)
		checkDim(q, p2)
		checkDim(q, p3)
		sqdist4(q, p0, p1, p2, p3, (*[4]float64)(out[i:i+4]))
	}
	for ; i < len(ids); i++ {
		p := points[ids[i]]
		checkDim(q, p)
		out[i] = sqdist(q, p)
	}
}

// checkDim panics unless p has dim(q). The panic lives in its own
// function so the check inlines into the batch loops.
func checkDim(q, p Vector) {
	if len(p) != len(q) {
		dimMismatch(len(q), len(p))
	}
}

func dimMismatch(want, got int) {
	panic(fmt.Sprintf("vec: distance dimension mismatch %d != %d", want, got))
}

// Axpy computes y += a*x elementwise (the BLAS axpy). Lengths must
// match. Elementwise updates have no accumulation order, so the
// 4-wide unroll changes no rounding versus the plain loop.
func Axpy(y []float64, a float64, x []float64) {
	if len(y) != len(x) {
		panic(fmt.Sprintf("vec: Axpy dimension mismatch %d != %d", len(y), len(x)))
	}
	x = x[:len(y)]
	i := 0
	for ; i+4 <= len(y); i += 4 {
		y[i] += a * x[i]
		y[i+1] += a * x[i+1]
		y[i+2] += a * x[i+2]
		y[i+3] += a * x[i+3]
	}
	for ; i < len(y); i++ {
		y[i] += a * x[i]
	}
}

// Dot returns the inner product of two equal-length slices under the
// shared four-lane contract. Vector.Dot and the CG iteration route
// through it.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Dot dimension mismatch %d != %d", len(a), len(b)))
	}
	return dot(a, b)
}

// dotGo is the Go body of Dot.
func dotGo(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return combineLanes(s0, s1, s2, s3)
}

// Sum returns the sum of the values under the shared four-lane
// contract (sparse row sums, degree vectors).
func Sum(a []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i]
		s1 += a[i+1]
		s2 += a[i+2]
		s3 += a[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i]
	}
	return combineLanes(s0, s1, s2, s3)
}

// DotGather computes sum_k val[k] * z[idx[k]] — the sparse gather-dot
// of CSR row products, CSC back substitution, and the baseline's
// AnchorDot — under the shared four-lane contract. idx entries must be
// valid indices into z.
func DotGather(val []float64, idx []int, z []float64) float64 {
	if len(val) != len(idx) {
		panic(fmt.Sprintf("vec: DotGather lengths %d != %d", len(val), len(idx)))
	}
	idx = idx[:len(val)]
	var s0, s1, s2, s3 float64
	t := 0
	for ; t+4 <= len(val); t += 4 {
		s0 += val[t] * z[idx[t]]
		s1 += val[t+1] * z[idx[t+1]]
		s2 += val[t+2] * z[idx[t+2]]
		s3 += val[t+3] * z[idx[t+3]]
	}
	for ; t < len(val); t++ {
		s0 += val[t] * z[idx[t]]
	}
	return combineLanes(s0, s1, s2, s3)
}

// DotGatherI32 is DotGather over int32 indices — the flat H-column
// layout of the EMR engine stores anchor ids as int32, and converting
// per entry would cost more than the dot itself.
func DotGatherI32(val []float64, idx []int32, z []float64) float64 {
	if len(val) != len(idx) {
		panic(fmt.Sprintf("vec: DotGather lengths %d != %d", len(val), len(idx)))
	}
	idx = idx[:len(val)]
	var s0, s1, s2, s3 float64
	t := 0
	for ; t+4 <= len(val); t += 4 {
		s0 += val[t] * z[idx[t]]
		s1 += val[t+1] * z[idx[t+1]]
		s2 += val[t+2] * z[idx[t+2]]
		s3 += val[t+3] * z[idx[t+3]]
	}
	for ; t < len(val); t++ {
		s0 += val[t] * z[idx[t]]
	}
	return combineLanes(s0, s1, s2, s3)
}

// ScatterAxpy computes y[idx[k]] += a * val[k] for every k — the
// column-scatter of CSC forward substitution. Each update touches its
// own slot in program order, so the unroll changes no rounding versus
// the plain loop (even with duplicate indices).
func ScatterAxpy(y []float64, idx []int, val []float64, a float64) {
	if len(val) != len(idx) {
		panic(fmt.Sprintf("vec: ScatterAxpy lengths %d != %d", len(idx), len(val)))
	}
	idx = idx[:len(val)]
	t := 0
	for ; t+4 <= len(val); t += 4 {
		y[idx[t]] += a * val[t]
		y[idx[t+1]] += a * val[t+1]
		y[idx[t+2]] += a * val[t+2]
		y[idx[t+3]] += a * val[t+3]
	}
	for ; t < len(val); t++ {
		y[idx[t]] += a * val[t]
	}
}
