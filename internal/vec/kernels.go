package vec

import (
	"fmt"
	"math"
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
// Each kernel is written once, over the storage type of its streamed
// operand (Float): float64, or the float32 of F32 storage. Every stored
// element is widened with float64(x) in registers before any
// arithmetic, and float64(x) is the identity on a float64 x, so the
// float64 instantiation computes exactly the float64 expression and the
// float32 one the same expression on the widened value; all
// accumulation is float64. The only difference between the two
// precisions is therefore the one float32 rounding applied when a value
// entered storage, which the tests pin by comparing each float32
// instantiation with the float64 one on widened inputs, bit for bit.
// Query-side operands stay []float64: the query is small and hot in
// cache, and the big streamed operand is the stored one. Callers pick
// the instantiation once per call, never per element.
//
// The squared-distance, dot and axpy kernels have two bodies per
// storage width, and the box distance, rotation, extent fold, fused
// dots and the basis kernels of the Lanczos build (Dot4, Axpy4) have
// two over float64: the Go bodies here (sqdistGo, dotGo, axpyGo,
// boxSqDistGo, rotGo, minMaxGo, dotFMAGo, dot4Go, axpy4Go), compiled
// everywhere, and AVX2 assembly (kernels_amd64.s) that gives the same
// bits (an accumulating kernel holds its four lanes in one ymm
// register).
// Package init picks the assembly once when the CPU and OS support AVX2
// (and FMA, for the fused dots; kernels_amd64.go); elsewhere the Go
// bodies are the only ones, and they are the tests' oracle. The
// batch forms score four rows per pass, four independent lane chains
// over one load of the query. The float32 entry points, batch forms and
// conversions live in kernels32.go.
//
// Every Go body hoists its bounds checks by reslicing to a common
// length before the loop, so the unrolled bodies compile without
// per-element checks (BCE-friendly). NaN and Inf flow through
// untouched — the kernels are pure arithmetic, no filtering, and
// widening is exact for both — which the property tests assert.

// Float is the storage type of a kernel's streamed operand.
type Float interface{ ~float32 | ~float64 }

// Index is the index type of the gather kernels: int, or the int32 of
// the EMR engine's flat anchor columns, where converting per entry
// would cost more than the dot itself.
type Index interface{ ~int | ~int32 }

// combineLanes folds the four accumulator lanes in the FIXED order of
// the summation contract. Every accumulating kernel ends with it.
func combineLanes(s0, s1, s2, s3 float64) float64 {
	return (s0 + s1) + (s2 + s3)
}

// sqdistGo is the Go body of the squared L2 distance between a float64
// query and a stored point; callers have validated len(q) == len(p).
func sqdistGo[P Float](q []float64, p []P) float64 {
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

// BoxSqDist returns the squared L2 distance from q to the axis-aligned
// box whose per-dimension minima are lo and maxima hi: the sum over j
// of max(lo_j − q_j, q_j − hi_j, 0)², under the shared four-lane
// contract. It is the k-d tree's leaf bound (knn.Tree). A NaN in any
// operand gives NaN, as does +Inf − +Inf in a difference. lo and hi must
// have len(q).
func BoxSqDist(q, lo, hi []float64) float64 {
	if len(lo) != len(q) || len(hi) != len(q) {
		panic(fmt.Sprintf("vec: BoxSqDist lengths %d, %d for a query of %d", len(lo), len(hi), len(q)))
	}
	return boxSqDist(q, lo, hi)
}

// boxSqDistGo is the Go body of BoxSqDist.
func boxSqDistGo(q, lo, hi []float64) float64 {
	lo, hi = lo[:len(q)], hi[:len(q)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(q); i += 4 {
		e0 := max(lo[i]-q[i], q[i]-hi[i], 0)
		e1 := max(lo[i+1]-q[i+1], q[i+1]-hi[i+1], 0)
		e2 := max(lo[i+2]-q[i+2], q[i+2]-hi[i+2], 0)
		e3 := max(lo[i+3]-q[i+3], q[i+3]-hi[i+3], 0)
		s0 += e0 * e0
		s1 += e1 * e1
		s2 += e2 * e2
		s3 += e3 * e3
	}
	for ; i < len(q); i++ {
		e := max(lo[i]-q[i], q[i]-hi[i], 0)
		s0 += e * e
	}
	return combineLanes(s0, s1, s2, s3)
}

// MinMax folds the row x into a running per-dimension extent: lo[j] =
// min(lo[j], x[j]) and hi[j] = max(hi[j], x[j]), with Go's min and max,
// so ±0 and NaN keep the builtins' bits. It is the extent fold of the
// k-d trees (knn.Tree, fanout.Gate). lo and hi must have len(x); where
// two of the three share memory the Go body runs, which is that loop in
// order.
func MinMax(lo, hi, x []float64) {
	if len(lo) != len(x) || len(hi) != len(x) {
		panic(fmt.Sprintf("vec: MinMax lengths %d, %d for a row of %d", len(lo), len(hi), len(x)))
	}
	minMax(lo, hi, x)
}

// minMaxGo is the Go body of MinMax.
func minMaxGo(lo, hi, x []float64) {
	lo, hi = lo[:len(x)], hi[:len(x)]
	for j, v := range x {
		lo[j] = min(lo[j], v)
		hi[j] = max(hi[j], v)
	}
}

// Axpy computes y += a*x elementwise (the BLAS axpy). Lengths must
// match. Elementwise updates have no accumulation order, so the
// unrolled bodies change no rounding versus the plain loop; where x and
// y share memory the Go body runs, which is that loop in order.
func Axpy[P Float](y []float64, a float64, x []P) {
	if len(y) != len(x) {
		panic(fmt.Sprintf("vec: Axpy dimension mismatch %d != %d", len(y), len(x)))
	}
	switch xs := any(x).(type) {
	case []float64:
		axpy(y, a, xs)
	case []float32:
		axpy32(y, a, xs)
	default:
		axpyGo(y, a, x)
	}
}

// axpyGo is the Go body of Axpy.
func axpyGo[P Float](y []float64, a float64, x []P) {
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

// Axpy4 computes y += a[0]*x0, then y += a[1]*x1, a[2]*x2 and a[3]*x3:
// the bits of those four Axpy calls in that order, in one pass over y.
// It is the update of the Lanczos reorthogonalization (spectral), which
// takes its basis four vectors at a time. Lengths must match; where y
// shares memory with an x the Go body runs, which is those calls in
// order.
func Axpy4(y []float64, a [4]float64, x0, x1, x2, x3 []float64) {
	if len(x0) != len(y) || len(x1) != len(y) || len(x2) != len(y) || len(x3) != len(y) {
		panic(fmt.Sprintf("vec: Axpy4 lengths %d, %d, %d, %d for y of %d", len(x0), len(x1), len(x2), len(x3), len(y)))
	}
	axpy4(y, &a, x0, x1, x2, x3)
}

// axpy4Go is the Go body of Axpy4: the four Axpy calls in order.
func axpy4Go(y []float64, a *[4]float64, x0, x1, x2, x3 []float64) {
	axpyGo(y, a[0], x0)
	axpyGo(y, a[1], x1)
	axpyGo(y, a[2], x2)
	axpyGo(y, a[3], x3)
}

// Rot applies the plane rotation (c, s) to the pair (x, y):
// x, y = c*x - s*y, s*x + c*y elementwise — the eigenvector-row
// rotation of the tridiagonal QL (dense.EigTridiag, which dense.EigSym
// runs too). Lengths must match; where x and y
// share memory the Go body runs, which is that loop in order.
func Rot(x, y []float64, c, s float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vec: Rot dimension mismatch %d != %d", len(x), len(y)))
	}
	rot(x, y, c, s)
}

// rotGo is the Go body of Rot.
func rotGo(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for k, xk := range x {
		yk := y[k]
		x[k] = c*xk - s*yk
		y[k] = s*xk + c*yk
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

// Dot4 writes Dot(w, x_r) into out[r] for the four rows x0..x3 of
// len(w): four independent chains over one load of w, each with Dot's
// lanes, tail and combine, and so Dot's bits. It is the partial-sum
// kernel of the Lanczos reorthogonalization (spectral).
func Dot4(w, x0, x1, x2, x3 []float64, out *[4]float64) {
	if len(x0) != len(w) || len(x1) != len(w) || len(x2) != len(w) || len(x3) != len(w) {
		panic(fmt.Sprintf("vec: Dot4 lengths %d, %d, %d, %d for w of %d", len(x0), len(x1), len(x2), len(x3), len(w)))
	}
	dot4(w, x0, x1, x2, x3, out)
}

// dot4Go is the Go body of Dot4: dotGo per row.
func dot4Go(w, x0, x1, x2, x3 []float64, out *[4]float64) {
	out[0], out[1], out[2], out[3] = dotGo(w, x0), dotGo(w, x1), dotGo(w, x2), dotGo(w, x3)
}

// The fused dot kernels below are the one exception to the unfused
// contract: lane l accumulates s_l = fma(a_i, b_i, s_l) over the
// positions i ≡ l (mod 4), one rounding per element, the tail fuses into
// lane 0, and the lanes combine as (s0+s1)+(s2+s3). They serve a bound,
// not a stored value: the graph build's leaf screen (knn.Tree) rules
// rows out by ‖q‖² + ‖p‖² − 2·q·p before it computes any row's exact
// distance, and its error bound holds for any order, fused or not. The
// Go body (dotFMAGo) fuses through math.FMA in the assembly's lane
// order, so the two give the same bits; the assembly runs where the CPU
// has FMA as well as AVX2 (useFMA).

// FastFMA reports whether the fused dot kernels run in assembly, on an
// amd64 CPU with AVX2 and FMA. Elsewhere their Go body runs, and
// math.FMA may be emulated in software (it is on 386) at tens of
// nanoseconds an element, so a caller that takes the fused dots only to
// save work checks this first.
func FastFMA() bool { return useFMA }

// DotRowsFMA writes q · row ids[t] of the flat row-major matrix pts
// (stride len(q)) into out[t] under the fused contract, four rows per
// kernel pass; a last pass short of four rows repeats its last row.
// len(out) must equal len(ids).
func DotRowsFMA(q, pts []float64, ids []int, out []float64) {
	checkFMARows(len(q), len(q), ids, out, out)
	d := len(q)
	t := 0
	for ; t+4 <= len(ids); t += 4 {
		dot4FMA(q, flatRow(pts, ids, t, d), flatRow(pts, ids, t+1, d), flatRow(pts, ids, t+2, d), flatRow(pts, ids, t+3, d),
			(*[4]float64)(out[t:t+4]))
	}
	if t < len(ids) {
		var o [4]float64
		dot4FMA(q, flatRow(pts, ids, t, d), flatRow(pts, ids, t+1, d), flatRow(pts, ids, t+2, d), flatRow(pts, ids, t+3, d), &o)
		copy(out[t:], o[:])
	}
}

// DotRowsFMA2 is DotRowsFMA for two queries at once, qa's dots into outA
// and qb's into outB: each row chunk is loaded once for both, which
// halves the row traffic of two one-query passes. Each output has the
// bits DotRowsFMA gives it.
func DotRowsFMA2(qa, qb, pts []float64, ids []int, outA, outB []float64) {
	checkFMARows(len(qa), len(qb), ids, outA, outB)
	d := len(qa)
	t := 0
	for ; t+4 <= len(ids); t += 4 {
		dot2x4FMA(qa, qb, flatRow(pts, ids, t, d), flatRow(pts, ids, t+1, d), flatRow(pts, ids, t+2, d), flatRow(pts, ids, t+3, d),
			(*[4]float64)(outA[t:t+4]), (*[4]float64)(outB[t:t+4]))
	}
	if t < len(ids) {
		var oa, ob [4]float64
		dot2x4FMA(qa, qb, flatRow(pts, ids, t, d), flatRow(pts, ids, t+1, d), flatRow(pts, ids, t+2, d), flatRow(pts, ids, t+3, d), &oa, &ob)
		copy(outA[t:], oa[:])
		copy(outB[t:], ob[:])
	}
}

func checkFMARows(da, db int, ids []int, outA, outB []float64) {
	if da == 0 || da != db {
		panic(fmt.Sprintf("vec: fused dots over query widths %d and %d", da, db))
	}
	if len(outA) != len(ids) || len(outB) != len(ids) {
		panic(fmt.Sprintf("vec: batch output lengths %d, %d for %d ids", len(outA), len(outB), len(ids)))
	}
}

// flatRow is row ids[t] of the row-major matrix pts of width dim, or its
// last row for t past the end.
func flatRow(pts []float64, ids []int, t, dim int) []float64 {
	id := ids[min(t, len(ids)-1)]
	return pts[id*dim : (id+1)*dim]
}

// dotFMAGo is the Go body of the fused dot kernels.
func dotFMAGo(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 = math.FMA(a[i], b[i], s0)
		s1 = math.FMA(a[i+1], b[i+1], s1)
		s2 = math.FMA(a[i+2], b[i+2], s2)
		s3 = math.FMA(a[i+3], b[i+3], s3)
	}
	for ; i < len(a); i++ {
		s0 = math.FMA(a[i], b[i], s0)
	}
	return combineLanes(s0, s1, s2, s3)
}

// dotGo is the Go body of Dot and Dot32.
func dotGo[P Float](a []float64, b []P) float64 {
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

// Sum returns the float64 sum of the values under the shared four-lane
// contract (sparse row sums, degree vectors).
func Sum[P Float](a []P) float64 {
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

// DotGather computes sum_k val[k] * z[idx[k]] — the sparse gather-dot
// of CSR row products, the factor's back substitution (cholesky), the
// EMR engine's anchor-column scan and cell bound, and the baseline's
// AnchorDot — under the shared four-lane contract. idx entries must be
// valid indices into z.
func DotGather[P Float, I Index](val []P, idx []I, z []float64) float64 {
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

// DotGatherI32 is DotGather over float64 values and int32 indices.
func DotGatherI32(val []float64, idx []int32, z []float64) float64 { return DotGather(val, idx, z) }

// ScatterAxpy computes y[idx[k]] += a * val[k] for every k — the
// column-scatter of CSC forward substitution. Each update touches its
// own slot in program order, so the unroll changes no rounding versus
// the plain loop (even with duplicate indices).
func ScatterAxpy[P Float](y []float64, idx []int, val []P, a float64) {
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
