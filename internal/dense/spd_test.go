package dense

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// randomSPD returns B B^T / cols + I for a random n x cols B: symmetric
// positive definite with a modest condition number.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	b := randomMatrix(rng, n, n+3)
	a := b.Mul(b.Transpose())
	for i := range a.Data {
		a.Data[i] /= float64(b.Cols)
	}
	for i := 0; i < n; i++ {
		a.Add(i, i, 1)
	}
	return a
}

// gramSPD returns the EMR engine's gram system I_p - alpha H H^T over a
// random anchor graph: Z is p x cols with s positive weights per column
// summing to 1, Lambda = diag(Z 1)^-1, and H = Lambda^{1/2} Z (the
// degree matrix of Z^T Lambda Z is the identity, its rows sum to 1), so
// H H^T has spectral radius 1 and the system's spectrum is [1-alpha, 1].
func gramSPD(rng *rand.Rand, p, s, cols int, alpha float64) *Matrix {
	idx := make([][]int, cols)
	val := make([][]float64, cols)
	rowSum := make([]float64, p)
	for c := range idx {
		idx[c] = rng.Perm(p)[:s]
		val[c] = make([]float64, s)
		var sum float64
		for t := range val[c] {
			val[c][t] = rng.Float64() + 0.05
			sum += val[c][t]
		}
		for t := range val[c] {
			val[c][t] /= sum
			rowSum[idx[c][t]] += val[c][t]
		}
	}
	g := Identity(p)
	for c := range idx {
		for a, ia := range idx[c] {
			ha := val[c][a] / math.Sqrt(rowSum[ia])
			for b, ib := range idx[c] {
				g.Add(ia, ib, -alpha*ha*val[c][b]/math.Sqrt(rowSum[ib]))
			}
		}
	}
	return g
}

// checkInverse holds InvertSPD to its contract on a: equal to the
// pivoted-LU inverse within tol of the largest entry, and exactly
// symmetric.
func checkInverse(t *testing.T, label string, a *Matrix, tol float64) *Matrix {
	t.Helper()
	got, err := InvertSPD(a)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, err := Inverse(a)
	if err != nil {
		t.Fatalf("%s: LU oracle: %v", label, err)
	}
	var scale float64
	for _, v := range want.Data {
		scale = math.Max(scale, math.Abs(v))
	}
	n := a.Rows
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if d := math.Abs(got.At(i, j) - want.At(i, j)); !(d <= tol*scale) {
				t.Fatalf("%s: inverse[%d][%d] = %.17g, LU says %.17g (diff %g, scale %g)", label, i, j, got.At(i, j), want.At(i, j), d, scale)
			}
			if got.At(i, j) != got.At(j, i) {
				t.Fatalf("%s: inverse not exactly symmetric at (%d,%d): %.17g vs %.17g", label, i, j, got.At(i, j), got.At(j, i))
			}
		}
	}
	return got
}

// TestInvertSPDMatchesLU: random SPD matrices and EMR-shaped gram
// systems, at orders on both sides of the panel width and the parallel
// block floor.
func TestInvertSPDMatchesLU(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 2, 3, spdPanel - 1, spdPanel, spdPanel + 1, 2*spdPanel + 5, 97, 160} {
		checkInverse(t, "random SPD", randomSPD(rng, n), 1e-12)
	}
	for _, tc := range []struct{ p, s int }{{8, 3}, {24, 24}, {64, 5}, {200, 6}} {
		checkInverse(t, "gram system", gramSPD(rng, tc.p, tc.s, 40*tc.p, 0.99), 1e-12)
	}
	if inv, err := InvertSPD(NewMatrix(0, 0)); err != nil || inv.Rows != 0 {
		t.Fatalf("empty matrix: %v, %v", inv, err)
	}
}

// TestInvertSPDReadsUpperTriangleOnly: the input is left untouched and
// only its upper triangle matters.
func TestInvertSPDReadsUpperTriangleOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := randomSPD(rng, 40)
	want := checkInverse(t, "symmetric input", a, 1e-12)
	junk := a.Clone()
	for i := 0; i < junk.Rows; i++ {
		for j := 0; j < i; j++ {
			junk.Set(i, j, math.NaN())
		}
	}
	before := junk.Clone()
	got, err := InvertSPD(junk)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("lower triangle influenced the result at %d", i)
		}
	}
	for i := range junk.Data {
		if math.Float64bits(junk.Data[i]) != math.Float64bits(before.Data[i]) {
			t.Fatalf("input mutated at %d", i)
		}
	}
}

// TestInvertSPDDeterministicAcrossGOMAXPROCS: every element is owned
// by one fixed block, so the inverse is byte-identical however many
// workers share the sweeps.
func TestInvertSPDDeterministicAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	a := gramSPD(rng, 300, 6, 6000, 0.99)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref *Matrix
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got, err := InvertSPD(a)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range got.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(ref.Data[i]) {
				t.Fatalf("GOMAXPROCS=%d: element %d differs from the GOMAXPROCS=1 inverse", procs, i)
			}
		}
	}
}

// TestInvertSPDRejects: input that is not SPD to working precision, or
// not finite, is an error — never a panic, never a NaN handed back.
func TestInvertSPDRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	poke := func(i, j int, v float64) *Matrix {
		a := randomSPD(rng, 37)
		a.Set(i, j, v)
		a.Set(j, i, v)
		return a
	}
	for label, a := range map[string]*Matrix{
		"non-square":            NewMatrix(3, 4),
		"zero matrix":           NewMatrix(5, 5),
		"indefinite 2x2":        NewMatrixFrom([][]float64{{1, 2}, {2, 1}}),
		"negative diagonal":     poke(20, 20, -1),
		"NaN on the diagonal":   poke(0, 0, math.NaN()),
		"NaN off the diagonal":  poke(3, 30, math.NaN()),
		"NaN in the last row":   poke(36, 36, math.NaN()),
		"+Inf on the diagonal":  poke(17, 17, math.Inf(1)),
		"+Inf off the diagonal": poke(2, 19, math.Inf(1)),
		"-Inf off the diagonal": poke(18, 33, math.Inf(-1)),
	} {
		inv, err := InvertSPD(a)
		if err == nil {
			t.Errorf("%s: accepted (inverse[0][0] = %g)", label, inv.At(0, 0))
		}
		if inv != nil {
			t.Errorf("%s: returned a matrix alongside the error", label)
		}
	}
}

// resolventSPD returns I - alpha*S for the symmetrically normalized
// adjacency S = D^-1/2 W D^-1/2 of a random weighted graph on n nodes
// (a ring, so no node is isolated, plus deg random chords per node): the
// spectral engine's closed-component system. S has spectral radius 1, so
// the spectrum lies in [1-alpha, 1+alpha] and the condition number is at
// most (1+alpha)/(1-alpha).
func resolventSPD(rng *rand.Rand, n, deg int, alpha float64) *Matrix {
	w := NewMatrix(n, n)
	link := func(i, j int) {
		if i != j {
			v := rng.Float64() + 0.05
			w.Set(i, j, v)
			w.Set(j, i, v)
		}
	}
	for i := 0; i < n; i++ {
		link(i, (i+1)%n)
		for t := 0; t < deg; t++ {
			link(i, rng.Intn(n))
		}
	}
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		for _, v := range w.Row(i) {
			d[i] += v
		}
	}
	a := Identity(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if d[i] > 0 && d[j] > 0 {
				a.Add(i, j, -alpha*w.At(i, j)/math.Sqrt(d[i]*d[j]))
			}
		}
	}
	return a
}

// TestSolveSPDMatchesLU: the in-place Cholesky solve against the pivoted
// LU solve on every order from 1 to 96, on resolvent systems at
// alpha = 0.99 (condition number up to 199) and on random SPD matrices —
// with the strict upper triangle poisoned, which must neither be read
// nor written.
func TestSolveSPDMatchesLU(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for n := 1; n <= 96; n++ {
		for label, a := range map[string]*Matrix{
			"resolvent":  resolventSPD(rng, n, 3, 0.99),
			"random SPD": randomSPD(rng, n),
		} {
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			want, err := Solve(a, b)
			if err != nil {
				t.Fatalf("%s n=%d: LU oracle: %v", label, n, err)
			}
			work := a.Clone()
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					work.Set(i, j, math.NaN())
				}
			}
			x := append([]float64(nil), b...)
			if !SolveSPD(work.Data, x) {
				t.Fatalf("%s n=%d: reported not positive definite", label, n)
			}
			var scale, diff float64
			for i := range want {
				scale = math.Max(scale, math.Abs(want[i]))
				diff = math.Max(diff, math.Abs(x[i]-want[i]))
			}
			if !(diff <= 1e-12*scale) {
				t.Fatalf("%s n=%d: solution off by %g against a largest entry of %g", label, n, diff, scale)
			}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if !math.IsNaN(work.At(i, j)) {
						t.Fatalf("%s n=%d: upper triangle written at (%d,%d)", label, n, i, j)
					}
				}
			}
		}
	}
	if !SolveSPD(nil, nil) {
		t.Fatal("the empty system is solvable")
	}
}

// TestSolveSPDRejects: a system that is not positive definite to working
// precision, or not finite, reports false instead of dividing by the bad
// pivot.
func TestSolveSPDRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	poke := func(i, j int, v float64) *Matrix {
		a := randomSPD(rng, 23)
		a.Set(i, j, v) // i >= j: the lower triangle is what is read
		return a
	}
	for label, a := range map[string]*Matrix{
		"zero matrix":           NewMatrix(5, 5),
		"indefinite 2x2":        NewMatrixFrom([][]float64{{1, 2}, {2, 1}}),
		"negative diagonal":     poke(11, 11, -1),
		"NaN on the diagonal":   poke(0, 0, math.NaN()),
		"NaN off the diagonal":  poke(19, 3, math.NaN()),
		"NaN in the last row":   poke(22, 22, math.NaN()),
		"+Inf on the diagonal":  poke(17, 17, math.Inf(1)),
		"+Inf off the diagonal": poke(19, 2, math.Inf(1)),
		"-Inf off the diagonal": poke(20, 18, math.Inf(-1)),
	} {
		b := make([]float64, a.Rows)
		for i := range b {
			b[i] = 1
		}
		if SolveSPD(a.Data, b) {
			t.Errorf("%s: accepted (x[0] = %g)", label, b[0])
		}
	}
}
