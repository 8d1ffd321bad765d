package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomCoords(rng *rand.Rand, rows, cols, nnz int) []Coord {
	entries := make([]Coord, nnz)
	for i := range entries {
		entries[i] = Coord{Row: rng.Intn(rows), Col: rng.Intn(cols), Val: rng.NormFloat64()}
	}
	return entries
}

func TestNewFromCoordsBasics(t *testing.T) {
	m, err := NewFromCoords(3, 4, []Coord{
		{Row: 0, Col: 1, Val: 2},
		{Row: 2, Col: 3, Val: -1},
		{Row: 0, Col: 1, Val: 3}, // duplicate, should sum to 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2 (duplicates summed)", m.NNZ())
	}
	if got := m.At(0, 1); got != 5 {
		t.Fatalf("At(0,1) = %g, want 5", got)
	}
	if got := m.At(1, 1); got != 0 {
		t.Fatalf("At(1,1) = %g, want 0", got)
	}
	if got := m.At(2, 3); got != -1 {
		t.Fatalf("At(2,3) = %g, want -1", got)
	}
}

func TestNewFromCoordsErrors(t *testing.T) {
	if _, err := NewFromCoords(-1, 2, nil); err == nil {
		t.Fatal("negative rows accepted")
	}
	if _, err := NewFromCoords(2, 2, []Coord{{Row: 2, Col: 0}}); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	if _, err := NewFromCoords(2, 2, []Coord{{Row: 0, Col: -1}}); err == nil {
		t.Fatal("negative col accepted")
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := Identity(2)
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range did not panic")
		}
	}()
	m.At(2, 0)
}

func TestDenseRoundTrip(t *testing.T) {
	// Property: CSR built from coords agrees elementwise with a dense
	// accumulation of the same coords.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(10), 1+rng.Intn(10)
		entries := randomCoords(rng, rows, cols, rng.Intn(30))
		m, err := NewFromCoords(rows, cols, entries)
		if err != nil {
			return false
		}
		want := make([][]float64, rows)
		for i := range want {
			want[i] = make([]float64, cols)
		}
		for _, e := range entries {
			want[e.Row][e.Col] += e.Val
		}
		got := m.Dense()
		for i := range want {
			for j := range want[i] {
				if math.Abs(got[i][j]-want[i][j]) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		m, err := NewFromCoords(rows, cols, randomCoords(rng, rows, cols, rng.Intn(20)))
		if err != nil {
			return false
		}
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := m.MulVec(x)
		d := m.Dense()
		for i := 0; i < rows; i++ {
			var want float64
			for j := 0; j < cols; j++ {
				want += d[i][j] * x[j]
			}
			if math.Abs(got[i]-want) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(8)
		m, err := NewFromCoords(rows, cols, randomCoords(rng, rows, cols, rng.Intn(20)))
		if err != nil {
			return false
		}
		tt := m.Transpose().Transpose()
		if tt.Rows != m.Rows || tt.Cols != m.Cols || tt.NNZ() != m.NNZ() {
			return false
		}
		for i := 0; i < m.Rows; i++ {
			cols0, vals0 := m.Row(i)
			for k, j := range cols0 {
				if math.Abs(tt.At(i, j)-vals0[k]) > 1e-15 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRowSumsDiagonalScaleClone(t *testing.T) {
	m, err := NewFromCoords(2, 2, []Coord{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 2}, {Row: 1, Col: 0, Val: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := m.RowSums()
	if rs[0] != 3 || rs[1] != 3 {
		t.Fatalf("RowSums = %v", rs)
	}
	c := m.Clone()
	c.Scale(2)
	if m.At(0, 1) != 2 || c.At(0, 1) != 4 {
		t.Fatal("Scale affected original or missed clone")
	}
}

func TestIsSymmetric(t *testing.T) {
	sym, _ := NewFromCoords(2, 2, []Coord{
		{Row: 0, Col: 1, Val: 5}, {Row: 1, Col: 0, Val: 5},
	})
	if !sym.IsSymmetric(1e-12) {
		t.Fatal("symmetric matrix rejected")
	}
	asym, _ := NewFromCoords(2, 2, []Coord{{Row: 0, Col: 1, Val: 5}})
	if asym.IsSymmetric(1e-12) {
		t.Fatal("asymmetric matrix accepted")
	}
	rect, _ := NewFromCoords(2, 3, nil)
	if rect.IsSymmetric(1e-12) {
		t.Fatal("rectangular matrix accepted as symmetric")
	}
}

func TestIdentity(t *testing.T) {
	m := Identity(3)
	if m.NNZ() != 3 {
		t.Fatalf("identity NNZ = %d", m.NNZ())
	}
	x := []float64{1, 2, 3}
	y := m.MulVec(x)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("I*x = %v", y)
		}
	}
}

func TestMulVecDimensionPanics(t *testing.T) {
	m := Identity(2)
	defer func() {
		if recover() == nil {
			t.Fatal("MulVec dimension mismatch did not panic")
		}
	}()
	m.MulVec([]float64{1, 2, 3})
}
