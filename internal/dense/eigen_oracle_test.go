package dense

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"mogul/internal/vec"
)

// eigSymOracle is the cyclic Jacobi eigensolver that EigSym was before
// it became a Householder reduction into EigTridiag's QL, frozen as it
// was before its rotations accumulated into the transpose of V and its
// sweeps indexed the storage directly: every access through At/Set, the
// eigenvector rotation a strided column update. It carries the
// symmetry tolerance relative to max|a| and the sweeps on a copy scaled
// by a power of two to unit max-abs entry, and it stops once the
// scaled off-diagonal Frobenius norm is at most 1e-12·n. It is the
// independent reference of checkEigSym and checkEigTridiag.
func eigSymOracle(a *Matrix) (w []float64, v *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("dense: EigSym of non-square %dx%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	var maxAbs float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if v := math.Abs(a.At(i, j)); v > maxAbs {
				maxAbs = v
			}
		}
	}
	tol := 1e-9 * maxAbs
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(a.At(i, j)-a.At(j, i)) > tol {
				return nil, nil, fmt.Errorf("dense: EigSym input not symmetric at (%d,%d): %g vs %g", i, j, a.At(i, j), a.At(j, i))
			}
		}
	}

	_, exp := math.Frexp(maxAbs)
	maxAbs = math.Ldexp(maxAbs, -exp)
	m := a.Clone()
	for i, x := range m.Data {
		m.Data[i] = math.Ldexp(x, -exp)
	}
	vec := Identity(n)
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m.At(i, j) * m.At(i, j)
			}
		}
		if math.Sqrt(2*off) <= 1e-12*maxAbs*float64(n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if math.Abs(apq) <= 1e-300 {
					continue
				}
				app, aqq := m.At(p, p), m.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				for k := 0; k < n; k++ {
					akp, akq := m.At(k, p), m.At(k, q)
					m.Set(k, p, c*akp-s*akq)
					m.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk, aqk := m.At(p, k), m.At(q, k)
					m.Set(p, k, c*apk-s*aqk)
					m.Set(q, k, s*apk+c*aqk)
				}
				for k := 0; k < n; k++ {
					vkp, vkq := vec.At(k, p), vec.At(k, q)
					vec.Set(k, p, c*vkp-s*vkq)
					vec.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}

	w = make([]float64, n)
	for i := 0; i < n; i++ {
		w[i] = math.Ldexp(m.At(i, i), exp)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return w[idx[i]] < w[idx[j]] })
	sortedW := make([]float64, n)
	sortedV := NewMatrix(n, n)
	for newCol, oldCol := range idx {
		sortedW[newCol] = w[oldCol]
		for r := 0; r < n; r++ {
			sortedV.Set(r, newCol, vec.At(r, oldCol))
		}
	}
	return sortedW, sortedV, nil
}

// checkEigSym holds EigSym(a) to the frozen Jacobi (eigSymOracle) and
// to what an eigendecomposition must be. Both must refuse the same
// inputs. Every check runs on a and its eigenvalues scaled by a power
// of two to unit max-abs entry (exact), where ‖A‖ is the largest
// absolute row sum, n the order and tol = 32·n·ε·‖A‖, as in
// checkEigTridiag:
//   - eigenvalues ascending and within tol of the oracle's;
//   - every residual ‖Av − λv‖∞ within tol;
//   - VᵀV within 32·n·ε of the identity;
//   - each eigenvector's largest-magnitude component, the first such on
//     ties, positive;
//   - the sine of the angle between each eigenvector and the oracle's
//     within (√n·tol + 1e-12·n)/δ, δ being the gap from the oracle's
//     value to its nearest neighbour: an eigenpair with residual r lies
//     within sine ‖r‖₂/δ of the true vector (Davis–Kahan), ‖r‖₂ is at
//     most √n·tol here, and the oracle's stopping test bounds its own
//     residual by 1e-12·n. Where the values (nearly) repeat, δ allows
//     no angle at all and the check passes.
func checkEigSym(t *testing.T, a *Matrix) {
	t.Helper()
	wantW, wantV, wantErr := eigSymOracle(a)
	w, v, err := EigSym(a)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("error %v, oracle error %v", err, wantErr)
	}
	if wantErr != nil {
		return
	}
	n := a.Rows
	var maxAbs float64
	for _, x := range a.Data {
		maxAbs = max(maxAbs, math.Abs(x))
	}
	_, exp := math.Frexp(maxAbs)
	var norm float64
	for i := 0; i < n; i++ {
		var row float64
		for _, x := range a.Row(i) {
			row += math.Abs(math.Ldexp(x, -exp))
		}
		norm = max(norm, row)
	}
	eps := 0x1p-52
	tol := 32 * float64(n) * eps * norm
	angleTol := math.Sqrt(float64(n))*tol + 1e-12*float64(n)
	col := func(m *Matrix, k int) []float64 {
		c := make([]float64, n)
		for i := range c {
			c[i] = m.At(i, k)
		}
		return c
	}
	for k := range w {
		lambda, want := math.Ldexp(w[k], -exp), math.Ldexp(wantW[k], -exp)
		if k > 0 && w[k] < w[k-1] {
			t.Fatalf("n=%d: eigenvalues not ascending at %d: %g < %g", n, k, w[k], w[k-1])
		}
		if diff := math.Abs(lambda - want); diff > tol {
			t.Fatalf("n=%d: scaled eigenvalue %d: %.17g, oracle %.17g (|Δ| %.3g > %.3g)", n, k, lambda, want, diff, tol)
		}
		z := col(v, k)
		big := 0
		for i := range z {
			r := -lambda * z[i]
			for j, x := range a.Row(i) {
				r += math.Ldexp(x, -exp) * z[j]
			}
			if math.Abs(r) > tol {
				t.Fatalf("n=%d: eigenpair %d: residual %.3g at row %d > %.3g", n, k, math.Abs(r), i, tol)
			}
			if math.Abs(z[i]) > math.Abs(z[big]) {
				big = i
			}
		}
		if !(z[big] > 0) {
			t.Fatalf("n=%d: eigenvector %d: largest component %d is %g, want positive", n, k, big, z[big])
		}
		for l := k; l < n; l++ {
			dot := vec.Dot(z, col(v, l))
			if k == l {
				dot--
			}
			if math.Abs(dot) > 32*float64(n)*eps {
				t.Fatalf("n=%d: <v%d, v%d> off the identity by %.3g", n, k, l, dot)
			}
		}
		gap := math.Inf(1)
		for j, x := range wantW {
			if j != k {
				gap = min(gap, math.Abs(math.Ldexp(x, -exp)-want))
			}
		}
		zj := col(wantV, k)
		c := vec.Dot(z, zj)
		var sin float64
		for i := range z {
			sin += (z[i] - c*zj[i]) * (z[i] - c*zj[i])
		}
		if sin = math.Sqrt(sin); sin*gap > angleTol {
			t.Fatalf("n=%d: eigenvector %d: sine %.3g to the oracle's at gap %.3g (> %.3g/gap)", n, k, sin, gap, angleTol)
		}
	}
}

// Shapes of fuzzed symmetric matrix.
const (
	shapeDense    = iota // every entry N(0, 1)
	shapeSparse          // three in four off-diagonals 0, some below the 1e-300 skip
	shapeRepeated        // identical diagonal blocks: exactly repeated eigenvalues
	shapeTridiag         // the Lanczos projection's shape, some couplings 0
	shapeCount
)

// fuzzSymmetric builds an n x n symmetric matrix of the given shape
// from seed, every entry scaled by 2^exp.
func fuzzSymmetric(seed int64, n, shape, exp int) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	a := NewMatrix(n, n)
	set := func(i, j int, v float64) {
		v = math.Ldexp(v, exp)
		a.Set(i, j, v)
		a.Set(j, i, v)
	}
	switch shape {
	case shapeDense:
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				set(i, j, rng.NormFloat64())
			}
		}
	case shapeSparse:
		for i := 0; i < n; i++ {
			set(i, i, rng.NormFloat64())
			for j := i + 1; j < n; j++ {
				switch rng.Intn(8) {
				case 0:
					set(i, j, rng.NormFloat64())
				case 1:
					set(i, j, rng.NormFloat64()*1e-301)
				}
			}
		}
	case shapeRepeated:
		bs := 1 + rng.Intn(3)
		block := make([]float64, bs*bs)
		for i := 0; i < bs; i++ {
			for j := i; j < bs; j++ {
				block[i*bs+j] = rng.NormFloat64()
				block[j*bs+i] = block[i*bs+j]
			}
		}
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				if i/bs == j/bs {
					set(i, j, block[(i%bs)*bs+j%bs])
				}
			}
		}
	case shapeTridiag:
		for i := 0; i < n; i++ {
			set(i, i, rng.Float64()*2-1)
			if i+1 < n && rng.Intn(6) != 0 {
				set(i, i+1, rng.Float64())
			}
		}
	}
	return a
}

// TestEigSymMatchesOracle: checkEigSym on every shape at orders 0-3, 7,
// 16 and 33, on random dense matrices at 150 and FMR's block order 300,
// and on the edge cases by hand.
func TestEigSymMatchesOracle(t *testing.T) {
	for shape := 0; shape < shapeCount; shape++ {
		for _, n := range []int{0, 1, 2, 3, 7, 16, 33} {
			for seed := int64(0); seed < 3; seed++ {
				checkEigSym(t, fuzzSymmetric(seed, n, shape, 0))
			}
		}
	}
	for _, n := range []int{150, 300} {
		t.Run(fmt.Sprintf("dense/n=%d", n), func(t *testing.T) {
			t.Parallel()
			checkEigSym(t, fuzzSymmetric(int64(n), n, shapeDense, 0))
		})
	}
	// The identity and the all-ones matrix: eigenvalues repeated n and
	// n-1 times, one with nothing to reduce. Wilkinson's W₂₁⁺, whose top
	// pairs agree to about 14 digits, as a dense matrix.
	ones := NewMatrix(9, 9)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	checkEigSym(t, Identity(9))
	checkEigSym(t, ones)
	d, e := fuzzTridiag(0, 21, triWilkinson, 0)
	w21 := NewMatrix(21, 21)
	for i := range d {
		w21.Set(i, i, d[i])
		if i < len(e) {
			w21.Set(i, i+1, e[i])
			w21.Set(i+1, i, e[i])
		}
	}
	checkEigSym(t, w21)
}

// FuzzEigSym: checkEigSym on random symmetric matrices of every shape,
// size and scale.
//
//	go test -run '^$' -fuzz 'FuzzEigSym$' -fuzztime 30s ./internal/dense
func FuzzEigSym(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(shapeDense), int8(0))
	f.Add(int64(2), uint8(12), uint8(shapeSparse), int8(0))
	f.Add(int64(3), uint8(9), uint8(shapeRepeated), int8(-3))
	f.Add(int64(4), uint8(24), uint8(shapeTridiag), int8(0))
	f.Add(int64(5), uint8(6), uint8(shapeDense), int8(100))
	f.Add(int64(6), uint8(6), uint8(shapeSparse), int8(-120))
	f.Fuzz(func(t *testing.T, seed int64, size, shape uint8, exp int8) {
		checkEigSym(t, fuzzSymmetric(seed, int(size%40), int(shape%shapeCount), int(exp)))
	})
}

// TestEigSymRejectsNonFinite: a NaN passes every tolerance comparison,
// so before the max-abs scan refused it a NaN matrix ran all 64 Jacobi
// sweeps and came back as NaN eigenpairs. Finite entries whose largest
// eigenvalue (2e308) overflows are an error too.
func TestEigSymRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range [][2]int{{0, 0}, {1, 2}, {2, 1}} {
			a := fuzzSymmetric(1, 3, shapeDense, 0)
			a.Set(at[0], at[1], bad)
			if _, _, err := EigSym(a); err == nil {
				t.Fatalf("accepted %v at %v", bad, at)
			}
		}
	}
	if _, _, err := EigSym(NewMatrixFrom([][]float64{{1e308, 1e308}, {1e308, 1e308}})); err == nil {
		t.Fatal("accepted an eigenvalue past the float64 range")
	}
}

// BenchmarkEigSym prices EigSym on random dense symmetric matrices
// (entries N(0, 1)) at order 150 and at 300, the order of the FMR
// baseline's per-block eigendecomposition, its one caller.
//
//	go test -run '^$' -bench 'BenchmarkEigSym' -benchtime 5x ./internal/dense
func BenchmarkEigSym(b *testing.B) {
	for _, m := range []int{150, 300} {
		a := fuzzSymmetric(1, m, shapeDense, 0)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := EigSym(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
