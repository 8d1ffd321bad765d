package dense

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// eigSymOracle is EigSym as it was before the rotations accumulated into
// the transpose of V and the sweeps indexed the storage directly: every
// access through At/Set, the eigenvector rotation a strided column
// update. It carries EigSym's two later rules, the symmetry tolerance
// relative to max|a| and the sweeps on a copy scaled by a power of two
// to unit max-abs entry. EigSym must return its eigenpairs to the bit
// on finite input.
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

// sameBitsOrNaN compares float64 bits, any NaN equal to any NaN: the
// two bodies may order the operands of a commutative NaN-producing
// operation differently, which changes only the payload.
func sameBitsOrNaN(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func checkEigSymMatchesOracle(t *testing.T, a *Matrix) {
	t.Helper()
	wantW, wantV, wantErr := eigSymOracle(a)
	gotW, gotV, gotErr := EigSym(a)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("error %v, oracle error %v", gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	for i := range wantW {
		if !sameBitsOrNaN(gotW[i], wantW[i]) {
			t.Fatalf("eigenvalue %d: %v, oracle %v", i, gotW[i], wantW[i])
		}
	}
	for i := range wantV.Data {
		if !sameBitsOrNaN(gotV.Data[i], wantV.Data[i]) {
			t.Fatalf("eigenvector element (%d,%d): %v, oracle %v", i/a.Rows, i%a.Rows, gotV.Data[i], wantV.Data[i])
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

func TestEigSymMatchesOracleBits(t *testing.T) {
	for shape := 0; shape < shapeCount; shape++ {
		for _, n := range []int{0, 1, 2, 3, 7, 16, 33} {
			for seed := int64(0); seed < 3; seed++ {
				checkEigSymMatchesOracle(t, fuzzSymmetric(seed, n, shape, 0))
			}
		}
	}
	// The identity and the all-ones matrix: eigenvalues repeated n and
	// n-1 times, one with nothing to rotate.
	ones := NewMatrix(9, 9)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	checkEigSymMatchesOracle(t, Identity(9))
	checkEigSymMatchesOracle(t, ones)
}

// FuzzEigSym: EigSym against eigSymOracle on random symmetric matrices
// of every shape, size and scale, bit for bit.
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
		checkEigSymMatchesOracle(t, fuzzSymmetric(seed, int(size%40), int(shape%shapeCount), int(exp)))
	})
}

// TestEigSymRejectsNonFinite: a NaN passes every tolerance comparison,
// so before the max-abs scan refused it a NaN matrix ran all 64 sweeps
// and came back as NaN eigenpairs.
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
}

// BenchmarkEigSym prices dense Jacobi on an unreduced tridiagonal
// (diagonal in [-1, 1], couplings in (0, 1)) of order 2*64 + 16 = 144,
// the order of spectral_id's Lanczos tridiagonal, whose Rayleigh-Ritz
// step it was before EigTridiag; BenchmarkRayleighRitz in
// internal/spectral times both solvers on the real one.
//
//	go test -run '^$' -bench 'BenchmarkEigSym' -benchtime 5x ./internal/dense
func BenchmarkEigSym(b *testing.B) {
	for _, m := range []int{144} {
		rng := rand.New(rand.NewSource(1))
		a := NewMatrix(m, m)
		for i := 0; i < m; i++ {
			a.Set(i, i, rng.Float64()*2-1)
			if i+1 < m {
				c := 0.05 + 0.9*rng.Float64()
				a.Set(i, i+1, c)
				a.Set(i+1, i, c)
			}
		}
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := EigSym(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
