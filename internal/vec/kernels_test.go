package vec

import (
	"math"
	"math/rand"
	"testing"
)

// kernelLens exercises the empty, single-element, sub-unroll, exact
// multiple-of-4, and off-by-{1,2,3} tail shapes of every kernel.
var kernelLens = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 31, 33, 64, 100, 257}

func randSlice(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
	}
	return out
}

// fourLaneSum is the in-test statement of the summation contract: lane
// l holds positions ≡ l (mod 4), tail folds into lane 0, lanes combine
// as (s0+s1)+(s2+s3). The kernels must match it bit-for-bit.
func fourLaneSum(terms []float64) float64 {
	var s [4]float64
	i := 0
	for ; i+4 <= len(terms); i += 4 {
		s[0] += terms[i]
		s[1] += terms[i+1]
		s[2] += terms[i+2]
		s[3] += terms[i+3]
	}
	for ; i < len(terms); i++ {
		s[0] += terms[i]
	}
	return (s[0] + s[1]) + (s[2] + s[3])
}

func relClose(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-12*scale
}

func TestSquaredEuclideanMatchesContractAndReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range kernelLens {
		for trial := 0; trial < 8; trial++ {
			a, b := Vector(randSlice(rng, n)), Vector(randSlice(rng, n))
			got := SquaredEuclidean(a, b)
			terms := make([]float64, n)
			var scalar float64
			for i := range a {
				d := a[i] - b[i]
				terms[i] = d * d
				scalar += d * d
			}
			if want := fourLaneSum(terms); got != want {
				t.Fatalf("n=%d: SquaredEuclidean=%v, contract says %v", n, got, want)
			}
			if !relClose(got, scalar) {
				t.Fatalf("n=%d: SquaredEuclidean=%v far from scalar %v", n, got, scalar)
			}
		}
	}
}

func TestDotMatchesContractAndReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range kernelLens {
		for trial := 0; trial < 8; trial++ {
			a, b := randSlice(rng, n), randSlice(rng, n)
			got := Dot(a, b)
			terms := make([]float64, n)
			var scalar float64
			for i := range a {
				terms[i] = a[i] * b[i]
				scalar += terms[i]
			}
			if want := fourLaneSum(terms); got != want {
				t.Fatalf("n=%d: Dot=%v, contract says %v", n, got, want)
			}
			if !relClose(got, scalar) {
				t.Fatalf("n=%d: Dot=%v far from scalar %v", n, got, scalar)
			}
			if mGot := Vector(a).Dot(Vector(b)); mGot != got {
				t.Fatalf("n=%d: Vector.Dot=%v != Dot=%v", n, mGot, got)
			}
		}
	}
}

func TestSumMatchesContract(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range kernelLens {
		a := randSlice(rng, n)
		if got, want := Sum(a), fourLaneSum(a); got != want {
			t.Fatalf("n=%d: Sum=%v, contract says %v", n, got, want)
		}
	}
}

func TestDotGatherMatchesContract(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	z := randSlice(rng, 97)
	for _, n := range kernelLens {
		val := randSlice(rng, n)
		idx := make([]int, n)
		idx32 := make([]int32, n)
		terms := make([]float64, n)
		for i := range idx {
			idx[i] = rng.Intn(len(z))
			idx32[i] = int32(idx[i])
			terms[i] = val[i] * z[idx[i]]
		}
		want := fourLaneSum(terms)
		if got := DotGather(val, idx, z); got != want {
			t.Fatalf("n=%d: DotGather=%v, contract says %v", n, got, want)
		}
		if got := DotGatherI32(val, idx32, z); got != want {
			t.Fatalf("n=%d: DotGatherI32=%v, contract says %v", n, got, want)
		}
	}
}

func TestElementwiseKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range kernelLens {
		x, y0 := randSlice(rng, n), randSlice(rng, n)
		alpha := rng.NormFloat64()

		y := append([]float64(nil), y0...)
		Axpy(y, alpha, x)
		for i := range y {
			if want := y0[i] + alpha*x[i]; y[i] != want {
				t.Fatalf("n=%d: Axpy[%d]=%v, want %v", n, i, y[i], want)
			}
		}

		v := Vector(append([]float64(nil), y0...))
		v.Add(Vector(x))
		for i := range v {
			if want := y0[i] + x[i]; v[i] != want {
				t.Fatalf("n=%d: Add[%d]=%v, want %v", n, i, v[i], want)
			}
		}
		v = Vector(append([]float64(nil), y0...))
		v.Scale(alpha)
		for i := range v {
			if want := y0[i] * alpha; v[i] != want {
				t.Fatalf("n=%d: Scale[%d]=%v, want %v", n, i, v[i], want)
			}
		}
	}
}

func TestScatterAxpyMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range kernelLens {
		val := randSlice(rng, n)
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(53) // duplicates on purpose
		}
		alpha := rng.NormFloat64()
		got := randSlice(rng, 53)
		want := append([]float64(nil), got...)
		ScatterAxpy(got, idx, val, alpha)
		for t2 := 0; t2 < n; t2++ {
			want[idx[t2]] += alpha * val[t2]
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("n=%d: ScatterAxpy[%d]=%v, want %v", n, j, got[j], want[j])
			}
		}
	}
}

func TestSquaredEuclideanBatchMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := Vector(randSlice(rng, 11))
	points := make([]Vector, 37)
	for i := range points {
		points[i] = Vector(randSlice(rng, 11))
	}
	out := make([]float64, len(points))
	SquaredEuclideanBatch(q, points, out)
	for i, p := range points {
		if want := SquaredEuclidean(q, p); out[i] != want {
			t.Fatalf("batch[%d]=%v, pairwise %v", i, out[i], want)
		}
	}
}

// TestKernelsPassNaNAndInfThrough pins the no-filtering guarantee: the
// kernels are pure arithmetic, so NaN and Inf propagate exactly as the
// scalar loops would propagate them.
func TestKernelsPassNaNAndInfThrough(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, n := range []int{1, 3, 4, 5, 9} {
		for _, poison := range []float64{nan, inf, -inf} {
			for pos := 0; pos < n; pos++ {
				a := make([]float64, n)
				b := make([]float64, n)
				for i := range a {
					a[i], b[i] = float64(i+1), float64(i+2)
				}
				a[pos] = poison
				if s := Dot(a, b); !math.IsNaN(s) && !math.IsInf(s, 0) {
					t.Fatalf("n=%d pos=%d poison=%v: Dot=%v stayed finite", n, pos, poison, s)
				}
				if s := SquaredEuclidean(a, b); !math.IsNaN(s) && !math.IsInf(s, 0) {
					t.Fatalf("n=%d pos=%d poison=%v: SquaredEuclidean=%v stayed finite", n, pos, poison, s)
				}
				if s := Sum(a); !math.IsNaN(s) && !math.IsInf(s, 0) {
					t.Fatalf("n=%d pos=%d poison=%v: Sum=%v stayed finite", n, pos, poison, s)
				}
				y := make([]float64, n)
				Axpy(y, 1, a)
				if !math.IsNaN(y[pos]) && !math.IsInf(y[pos], 0) {
					t.Fatalf("n=%d pos=%d poison=%v: Axpy dropped the poison", n, pos, poison)
				}
			}
		}
	}
}

func TestKernelLengthMismatchesPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"Dot":          func() { Dot(make([]float64, 2), make([]float64, 3)) },
		"Axpy":         func() { Axpy(make([]float64, 2), 1, make([]float64, 3)) },
		"DotGather":    func() { DotGather(make([]float64, 2), make([]int, 3), make([]float64, 4)) },
		"DotGatherI32": func() { DotGatherI32(make([]float64, 2), make([]int32, 3), make([]float64, 4)) },
		"ScatterAxpy":  func() { ScatterAxpy(make([]float64, 4), make([]int, 3), make([]float64, 2), 1) },
		"BoxSqDist/lo": func() { BoxSqDist(make([]float64, 2), make([]float64, 1), make([]float64, 2)) },
		"BoxSqDist/hi": func() { BoxSqDist(make([]float64, 2), make([]float64, 2), make([]float64, 3)) },
		"BatchOutLen":  func() { SquaredEuclideanBatch(Vector{1}, make([]Vector, 2), make([]float64, 3)) },
		"BatchPointDim": func() {
			SquaredEuclideanBatch(Vector{1}, []Vector{{1, 2}}, make([]float64, 1))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic on mismatched lengths", name)
				}
			}()
			fn()
		}()
	}
}
