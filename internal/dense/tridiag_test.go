package dense

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// checkEigTridiag holds EigTridiag(d, e) to what an eigendecomposition
// of the tridiagonal T must be. Every check runs on T and its
// eigenvalues scaled by a power of two to unit max-abs entry (exact, and
// clear of overflow), where ‖T‖ is the largest absolute row sum and m
// the order: eigenvalues ascending and within 32·m·ε·‖T‖ of the frozen
// dense Jacobi eigensolver's (eigSymOracle) on the explicit T; every
// residual ‖Tz − λz‖∞ within the same bound; ZᵀZ within 32·m·ε of the
// identity; and each eigenvector's largest-magnitude component, the
// first such on ties, positive.
func checkEigTridiag(t *testing.T, d, e []float64) {
	t.Helper()
	m := len(d)
	w, zt, err := EigTridiag(d, e)
	if err != nil {
		t.Fatalf("m=%d: %v", m, err)
	}
	if len(w) != m || zt.Rows != m || zt.Cols != m {
		t.Fatalf("m=%d: %d values, %dx%d vectors", m, len(w), zt.Rows, zt.Cols)
	}
	var maxAbs float64
	for _, x := range append(append([]float64{}, d...), e...) {
		maxAbs = max(maxAbs, math.Abs(x))
	}
	_, exp := math.Frexp(maxAbs)
	at := func(i, j int) float64 { // scaled T(i, j), |i - j| <= 1
		if i == j {
			return math.Ldexp(d[i], -exp)
		}
		return math.Ldexp(e[min(i, j)], -exp)
	}
	var norm float64
	T := NewMatrix(m, m)
	for i := 0; i < m; i++ {
		var row float64
		for j := max(i-1, 0); j <= min(i+1, m-1); j++ {
			T.Set(i, j, at(i, j))
			row += math.Abs(at(i, j))
		}
		norm = max(norm, row)
	}
	eps := 0x1p-52
	tol := 32 * float64(m) * eps * norm
	wj, _, err := eigSymOracle(T)
	if err != nil {
		t.Fatalf("m=%d: Jacobi: %v", m, err)
	}
	for k := range w {
		lambda := math.Ldexp(w[k], -exp)
		if k > 0 && w[k] < w[k-1] {
			t.Fatalf("m=%d: eigenvalues not ascending at %d: %g < %g", m, k, w[k], w[k-1])
		}
		if diff := math.Abs(lambda - wj[k]); diff > tol {
			t.Fatalf("m=%d: scaled eigenvalue %d: %.17g, Jacobi %.17g (|Δ| %.3g > %.3g)", m, k, lambda, wj[k], diff, tol)
		}
		z := zt.Row(k)
		for i := range z {
			r := -lambda * z[i]
			for j := max(i-1, 0); j <= min(i+1, m-1); j++ {
				r += at(i, j) * z[j]
			}
			if math.Abs(r) > tol {
				t.Fatalf("m=%d: eigenpair %d: residual %.3g at row %d > %.3g", m, k, math.Abs(r), i, tol)
			}
		}
		big := 0
		for i := range z {
			if math.Abs(z[i]) > math.Abs(z[big]) {
				big = i
			}
		}
		if !(z[big] > 0) {
			t.Fatalf("m=%d: eigenvector %d: largest component %d is %g, want positive", m, k, big, z[big])
		}
		for l := k; l < m; l++ {
			var dot float64
			for i, x := range zt.Row(l) {
				dot += z[i] * x
			}
			if k == l {
				dot--
			}
			if math.Abs(dot) > 32*float64(m)*eps {
				t.Fatalf("m=%d: <z%d, z%d> off the identity by %.3g", m, k, l, dot)
			}
		}
	}
}

// Shapes of fuzzed tridiagonal matrix.
const (
	triRandom    = iota // diagonal in [-1, 1], couplings in (0, 1): the Lanczos shape
	triSplit            // one in three couplings 0 or below 1e-300
	triRepeated         // one 1-3 block repeated, split by zero couplings
	triGraded           // entries falling by 2⁻⁸ a row, either way down
	triWilkinson        // Wilkinson's W⁺: |i - m/2| on the diagonal, couplings 1
	triCount
)

// fuzzTridiag builds the diagonal and couplings of an m x m symmetric
// tridiagonal of the given shape from seed, every entry scaled by 2^exp.
func fuzzTridiag(seed int64, m, shape, exp int) (d, e []float64) {
	rng := rand.New(rand.NewSource(seed))
	d, e = make([]float64, m), make([]float64, max(m-1, 0))
	bs := 1 + rng.Intn(3)
	block := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1, rng.Float64()*2 - 1, rng.Float64(), rng.Float64()}
	for i := range d {
		d[i] = rng.Float64()*2 - 1
		if i+1 == m {
			break
		}
		e[i] = rng.Float64()
		switch shape {
		case triSplit:
			switch rng.Intn(3) {
			case 0:
				e[i] = 0
			case 1:
				e[i] *= 1e-301
			}
		case triRepeated:
			d[i], e[i] = block[i%bs], block[3+i%bs%2]
			if i%bs == bs-1 {
				e[i] = 0
			}
		case triGraded:
			g := i
			if seed%2 == 0 {
				g = m - 1 - i
			}
			d[i], e[i] = math.Ldexp(d[i], -8*g), math.Ldexp(e[i], -8*g-4)
		case triWilkinson:
			d[i], e[i] = math.Abs(float64(i-m/2)), 1
		}
	}
	switch {
	case m == 0:
	case shape == triRepeated:
		d[m-1] = block[(m-1)%bs]
	case shape == triGraded && seed%2 != 0:
		d[m-1] = math.Ldexp(d[m-1], -8*(m-1))
	case shape == triWilkinson:
		d[m-1] = math.Abs(float64(m - 1 - m/2))
	}
	for i := range d {
		d[i] = math.Ldexp(d[i], exp)
	}
	for i := range e {
		e[i] = math.Ldexp(e[i], exp)
	}
	return d, e
}

// TestEigTridiagMatchesJacobi: checkEigTridiag on every shape at orders
// 0-3, 16, 33 and the spectral engine's default 144, and on the edge
// cases by hand.
func TestEigTridiagMatchesJacobi(t *testing.T) {
	for shape := 0; shape < triCount; shape++ {
		for _, m := range []int{0, 1, 2, 3, 16, 33, 144} {
			for seed := int64(0); seed < 3; seed++ {
				t.Run(fmt.Sprintf("shape=%d/m=%d/seed=%d", shape, m, seed), func(t *testing.T) {
					d, e := fuzzTridiag(seed, m, shape, 0)
					checkEigTridiag(t, d, e)
				})
			}
		}
	}
	// Wilkinson's W₂₁⁺, whose top pairs agree to about 14 digits; a zero
	// matrix; a 2 x 2 with equal diagonals; couplings at the edge of
	// negligible and subnormal, between equal and unequal diagonals;
	// and entries near the largest and smallest normal magnitudes.
	w21d, w21e := fuzzTridiag(0, 21, triWilkinson, 0)
	checkEigTridiag(t, w21d, w21e)
	checkEigTridiag(t, make([]float64, 5), make([]float64, 4))
	checkEigTridiag(t, []float64{0.5, 0.5}, []float64{1e-300})
	checkEigTridiag(t, []float64{0, 0, 1, 1}, []float64{1e-310, 1e-17, 5e-324})
	checkEigTridiag(t, []float64{1e307, -1e307, 1e307}, []float64{1.7e307, 1e307})
	checkEigTridiag(t, []float64{1e-300, -3e-300, 2e-307}, []float64{2e-300, 1e-307})
}

// TestEigTridiagRejectsBadInput: a NaN or an infinity anywhere,
// couplings that do not number one less than the diagonal, or finite
// entries whose largest eigenvalue (2e308) overflows, is an error.
func TestEigTridiagRejectsBadInput(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for at := 0; at < 5; at++ {
			d, e := fuzzTridiag(1, 3, triRandom, 0)
			if at < 3 {
				d[at] = bad
			} else {
				e[at-3] = bad
			}
			if _, _, err := EigTridiag(d, e); err == nil {
				t.Fatalf("accepted %v at %d", bad, at)
			}
		}
	}
	for _, n := range [][2]int{{3, 3}, {3, 1}, {0, 1}, {1, 1}} {
		if _, _, err := EigTridiag(make([]float64, n[0]), make([]float64, n[1])); err == nil {
			t.Fatalf("accepted %d diagonal and %d off-diagonal entries", n[0], n[1])
		}
	}
	if _, _, err := EigTridiag([]float64{1e308, 1e308}, []float64{1e308}); err == nil {
		t.Fatal("accepted an eigenvalue past the float64 range")
	}
}

// FuzzEigTridiag: checkEigTridiag on tridiagonals of every shape, order
// up to 63 and scale 2^±127.
//
//	go test -run '^$' -fuzz 'FuzzEigTridiag$' -fuzztime 30s ./internal/dense
func FuzzEigTridiag(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(triRandom), int8(0))
	f.Add(int64(2), uint8(40), uint8(triSplit), int8(-100))
	f.Add(int64(3), uint8(12), uint8(triRepeated), int8(3))
	f.Add(int64(4), uint8(30), uint8(triGraded), int8(90))
	f.Add(int64(5), uint8(21), uint8(triWilkinson), int8(0))
	f.Fuzz(func(t *testing.T, seed int64, size, shape uint8, exp int8) {
		d, e := fuzzTridiag(seed, int(size%64), int(shape%triCount), int(exp))
		checkEigTridiag(t, d, e)
	})
}
