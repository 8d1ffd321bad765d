package vec

import (
	"math"
	"math/rand"
	"testing"
)

// The float32 side of every kernel promises: widen every float32
// element to float64 and run the float64 kernel, and you get the SAME
// bits. That is the whole mixed-precision contract — the only rounding
// is the one applied when a value entered f32 storage — so the tests
// assert bit equality against the float64 kernels, not approximate
// closeness. TestKernels32BitIdenticalToWidenedReference checks it on
// ordinary values; FuzzKernelFamily (kernels_family_test.go) takes the
// same comparison to raw bit patterns.

func randSlice32(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3)))
	}
	return out
}

func widen(a []float32) []float64 { return Widen64(nil, a) }

func TestKernels32BitIdenticalToWidenedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, n := range kernelLens {
		a32 := randSlice32(rng, n)
		b32 := randSlice32(rng, n)
		q := randSlice(rng, n)
		a64, b64 := widen(a32), widen(b32)

		if got, want := SquaredEuclideanQ32(q, b32), SquaredEuclidean(q, b64); got != want {
			t.Fatalf("n=%d: SquaredEuclideanQ32=%v, widened reference %v", n, got, want)
		}
		if got, want := Dot32(q, b32), Dot(q, b64); got != want {
			t.Fatalf("n=%d: Dot32=%v, widened reference %v", n, got, want)
		}
		if got, want := Sum(a32), Sum(a64); got != want {
			t.Fatalf("n=%d: Sum[float32]=%v, widened reference %v", n, got, want)
		}

		y32 := randSlice(rng, n)
		y64 := append([]float64(nil), y32...)
		Axpy(y32, 1.75, b32)
		Axpy(y64, 1.75, b64)
		for i := range y32 {
			if y32[i] != y64[i] {
				t.Fatalf("n=%d: Axpy[float32][%d]=%v, widened reference %v", n, i, y32[i], y64[i])
			}
		}

		z := randSlice(rng, n+1)
		idx := make([]int, n)
		idx32 := make([]int32, n)
		for i := range idx {
			idx[i] = rng.Intn(len(z))
			idx32[i] = int32(idx[i])
		}
		if got, want := DotGather(a32, idx, z), DotGather(a64, idx, z); got != want {
			t.Fatalf("n=%d: DotGather[float32]=%v, widened reference %v", n, got, want)
		}
		if got, want := DotGather32I32(a32, idx32, z), DotGather(a64, idx, z); got != want {
			t.Fatalf("n=%d: DotGather32I32=%v, widened reference %v", n, got, want)
		}

		ys := make([]float64, len(z))
		yw := make([]float64, len(z))
		copy(yw, ys)
		ScatterAxpy(ys, idx, a32, -0.5)
		ScatterAxpy(yw, idx, a64, -0.5)
		for i := range ys {
			if ys[i] != yw[i] {
				t.Fatalf("n=%d: ScatterAxpy[float32][%d]=%v, widened reference %v", n, i, ys[i], yw[i])
			}
		}
	}
}

func TestSquaredEuclideanBatch32MatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for _, dim := range []int{1, 3, 4, 7, 16, 33} {
		const rows = 9
		q := randSlice(rng, dim)
		flat := randSlice32(rng, rows*dim)
		out := make([]float64, rows)
		SquaredEuclideanBatch32(q, flat, out)
		for i := 0; i < rows; i++ {
			want := SquaredEuclideanQ32(q, flat[i*dim:(i+1)*dim])
			if out[i] != want {
				t.Fatalf("dim=%d row=%d: batch=%v pairwise=%v", dim, i, out[i], want)
			}
		}
	}
}

// NaN and Inf must flow through the f32 kernels untouched: widening is
// exact for both, so the reference comparison covers the finite case
// and this test pins the non-finite one.
func TestKernels32NaNInfPropagation(t *testing.T) {
	nan32 := float32(math.NaN())
	inf32 := float32(math.Inf(1))

	a := []float32{1, nan32, 3, 4, 5}
	if !math.IsNaN(SquaredEuclideanQ32([]float64{1, 2, 3, 4, 5}, a)) {
		t.Fatal("SquaredEuclideanQ32 swallowed NaN")
	}
	if !math.IsNaN(Dot32([]float64{1, 1, 1, 1, 1}, a)) {
		t.Fatal("Dot32 swallowed NaN")
	}
	if !math.IsNaN(Sum([]float32{0, nan32})) {
		t.Fatal("Sum[float32] swallowed NaN")
	}
	if got := Sum([]float32{1, inf32, 2, 3, 4}); !math.IsInf(got, 1) {
		t.Fatalf("Sum[float32] with +Inf = %v", got)
	}
	if got := SquaredEuclideanQ32([]float64{0, 0}, []float32{inf32, 0}); !math.IsInf(got, 1) {
		t.Fatalf("SquaredEuclideanQ32 with Inf = %v", got)
	}
	y := []float64{0, 0}
	Axpy(y, 1, []float32{nan32, 1})
	if !math.IsNaN(y[0]) || y[1] != 1 {
		t.Fatalf("Axpy[float32] NaN propagation: %v", y)
	}
	z := []float64{2, math.Inf(-1)}
	if got := DotGather([]float32{1, 1}, []int{0, 1}, z); !math.IsInf(got, -1) {
		t.Fatalf("DotGather[float32] with -Inf z = %v", got)
	}
}

func TestKernels32LengthMismatchPanics(t *testing.T) {
	cases := map[string]func(){
		"SquaredEuclideanQ32": func() {
			SquaredEuclideanQ32(make([]float64, 2), make([]float32, 3))
		},
		"SquaredEuclideanBatch32": func() {
			SquaredEuclideanBatch32(make([]float64, 2), make([]float32, 5), make([]float64, 2))
		},
		"SquaredEuclideanBatch32/zero-dim": func() {
			SquaredEuclideanBatch32(nil, make([]float32, 4), make([]float64, 2))
		},
		"Dot32":                func() { Dot32(make([]float64, 4), make([]float32, 3)) },
		"Axpy[float32]":        func() { Axpy(make([]float64, 4), 1, make([]float32, 5)) },
		"ScatterAxpy[float32]": func() { ScatterAxpy(make([]float64, 4), make([]int, 2), make([]float32, 3), 1) },
		"DotGather[float32]":   func() { DotGather(make([]float32, 2), make([]int, 3), make([]float64, 4)) },
		"DotGather32I32":       func() { DotGather32I32(make([]float32, 2), make([]int32, 3), make([]float64, 4)) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: length mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFlattenUnflatten32RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	points := make([]Vector, 7)
	for i := range points {
		points[i] = randSlice(rng, 5)
	}
	flat, dim := Flatten32(points)
	if dim != 5 || len(flat) != 35 {
		t.Fatalf("Flatten32 shape: dim=%d len=%d", dim, len(flat))
	}
	for i, p := range points {
		for j, v := range p {
			if flat[i*dim+j] != float32(v) {
				t.Fatalf("Flatten32 [%d][%d]: %v != %v", i, j, flat[i*dim+j], float32(v))
			}
		}
	}
	if flat, dim := Flatten32(nil); flat != nil || dim != 0 {
		t.Fatalf("Flatten32(nil) = %v, %d", flat, dim)
	}
	if got := Narrow32(nil, []float64{1.5, -2.25}); got[0] != 1.5 || got[1] != -2.25 {
		t.Fatalf("Narrow32 = %v", got)
	}
}
