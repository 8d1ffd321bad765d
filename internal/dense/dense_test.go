package dense

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 4, 4)
	got := a.Mul(Identity(4))
	for i := range a.Data {
		if math.Abs(got.Data[i]-a.Data[i]) > 1e-14 {
			t.Fatalf("A*I != A at %d", i)
		}
	}
}

func TestMulAgainstManual(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	b := NewMatrixFrom([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("C[%d][%d] = %g, want %g", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := a.MulVec([]float64{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestTranspose(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.Rows != 3 || at.Cols != 2 || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("Transpose wrong: %+v", at)
	}
}

func TestLUSolveProperty(t *testing.T) {
	// Property: for random well-conditioned A and b, A*Solve(b) == b.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := randomMatrix(rng, n, n)
		// Diagonal dominance for conditioning.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)+2)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		ax := a.MulVec(x)
		for i := range b {
			if math.Abs(ax[i]-b[i]) > 1e-8*(1+math.Abs(b[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(10)
		a := randomMatrix(rng, n, n)
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)+2)
		}
		inv, err := Inverse(a)
		if err != nil {
			t.Fatal(err)
		}
		prod := a.Mul(inv)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(prod.At(i, j)-want) > 1e-8 {
					t.Fatalf("A*A^-1 at (%d,%d) = %g", i, j, prod.At(i, j))
				}
			}
		}
	}
}

func TestSingularRejected(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {2, 4}})
	if _, err := Factorize(a); err == nil {
		t.Fatal("singular matrix factorized")
	}
	if _, err := Factorize(NewMatrix(2, 3)); err == nil {
		t.Fatal("non-square matrix factorized")
	}
}

func TestEigSymSmall(t *testing.T) {
	a := NewMatrixFrom([][]float64{{2, 1}, {1, 2}})
	w, v, err := EigSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w[0]-1) > 1e-9 || math.Abs(w[1]-3) > 1e-9 {
		t.Fatalf("eigenvalues = %v, want [1 3]", w)
	}
	// Columns orthonormal.
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			var dot float64
			for r := 0; r < 2; r++ {
				dot += v.At(r, i) * v.At(r, j)
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(dot-want) > 1e-9 {
				t.Fatalf("V^T V at (%d,%d) = %g", i, j, dot)
			}
		}
	}
}

func TestEigSymReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(10)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		w, v, err := EigSym(a)
		if err != nil {
			t.Fatal(err)
		}
		// Check A v_k = w_k v_k for each eigenpair.
		for k := 0; k < n; k++ {
			col := make([]float64, n)
			for r := 0; r < n; r++ {
				col[r] = v.At(r, k)
			}
			av := a.MulVec(col)
			for r := 0; r < n; r++ {
				if math.Abs(av[r]-w[k]*col[r]) > 1e-7 {
					t.Fatalf("trial %d: eigenpair %d residual %g", trial, k, av[r]-w[k]*col[r])
				}
			}
		}
		// Ascending order.
		for k := 1; k < n; k++ {
			if w[k] < w[k-1]-1e-12 {
				t.Fatalf("eigenvalues not ascending: %v", w)
			}
		}
	}
}

// TestEigSymStopsRelative: the work runs on A scaled to unit max-abs
// entry, so a tiny coupling is resolved rather than taken for zero, and
// a power-of-two scaling of A scales its eigenvalues and nothing else.
func TestEigSymStopsRelative(t *testing.T) {
	w, _, err := EigSym(NewMatrixFrom([][]float64{{0, 1e-13}, {1e-13, 0}}))
	if err != nil || math.Abs(w[0]+1e-13) > 1e-25 || math.Abs(w[1]-1e-13) > 1e-25 {
		t.Fatalf("eigenvalues = %v (err %v), want [-1e-13 1e-13]", w, err)
	}
	// 1e-200 squared underflows to 0: a test on the unscaled coupling
	// would split the matrix before the first rotation, at [0 0].
	w, _, err = EigSym(NewMatrixFrom([][]float64{{0, 1e-200}, {1e-200, 0}}))
	if err != nil || math.Abs(w[0]+1e-200) > 1e-212 || math.Abs(w[1]-1e-200) > 1e-212 {
		t.Fatalf("eigenvalues = %v (err %v), want [-1e-200 1e-200]", w, err)
	}
	rng := rand.New(rand.NewSource(6))
	const n, scale = 8, 0x1p-40
	a, small := NewMatrix(n, n), NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
			small.Set(i, j, v*scale)
			small.Set(j, i, v*scale)
		}
	}
	w, _, err = EigSym(a)
	ws, _, errs := EigSym(small)
	if err != nil || errs != nil {
		t.Fatal(err, errs)
	}
	top := math.Max(math.Abs(w[0]), math.Abs(w[n-1]))
	for k := range w {
		if math.Abs(ws[k]/scale-w[k]) > 1e-12*top {
			t.Fatalf("eigenvalue %d: %g of 2^-40·A scales back to %g, A's is %g", k, ws[k], ws[k]/scale, w[k])
		}
	}
}

func TestEigSymRejectsAsymmetric(t *testing.T) {
	a := NewMatrixFrom([][]float64{{1, 2}, {3, 4}})
	if _, _, err := EigSym(a); err == nil {
		t.Fatal("asymmetric matrix accepted")
	}
	// The tolerance is relative to max|a|: an absolute floor of 1e-9
	// would let a matrix whose entries are all far below it through.
	if _, _, err := EigSym(NewMatrixFrom([][]float64{{0, 1e-13}, {5e-13, 0}})); err == nil {
		t.Fatal("asymmetric matrix of small entries accepted")
	}
	if _, _, err := EigSym(NewMatrix(2, 3)); err == nil {
		t.Fatal("non-square matrix accepted")
	}
}
