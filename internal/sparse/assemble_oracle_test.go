package sparse_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mogul/internal/core"
	"mogul/internal/sparse"
)

// The coordinate assembly the CSR builders used before they wrote their
// rows directly, frozen here as their oracle: NewFromCoords sorting with
// sort.Slice, PermuteSym and the system matrix collecting coordinates
// and assembling them through it.

// coordsOracle is NewFromCoords with sort.Slice.
func coordsOracle(rows, cols int, entries []sparse.Coord) *sparse.CSR {
	sorted := append([]sparse.Coord(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &sparse.CSR{RowPtr: make([]int, rows+1), Rows: rows, Cols: cols}
	m.Col = make([]int, 0, len(sorted))
	m.Val = make([]float64, 0, len(sorted))
	for i := 0; i < len(sorted); {
		j := i
		sum := 0.0
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			sum += sorted[j].Val
			j++
		}
		m.Col = append(m.Col, sorted[i].Col)
		m.Val = append(m.Val, sum)
		m.RowPtr[sorted[i].Row+1]++
		i = j
	}
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m
}

// permuteSymOracle is PermuteSym through the coordinate assembly.
func permuteSymOracle(p *sparse.Permutation, a *sparse.CSR) *sparse.CSR {
	var entries []sparse.Coord
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			entries = append(entries, sparse.Coord{Row: p.OldToNew[i], Col: p.OldToNew[j], Val: vals[k]})
		}
	}
	return coordsOracle(a.Rows, a.Cols, entries)
}

// systemMatrixOracle is core.BuildSystemMatrix through the coordinate
// assembly: the diagonal's 1 and every scaled entry as coordinates.
func systemMatrixOracle(adj *sparse.CSR, p *sparse.Permutation, alpha float64) *sparse.CSR {
	aPerm := permuteSymOracle(p, adj)
	deg := aPerm.RowSums()
	invSqrt := make([]float64, len(deg))
	for i, d := range deg {
		if d > 0 {
			invSqrt[i] = 1 / math.Sqrt(d)
		}
	}
	n := aPerm.Rows
	var entries []sparse.Coord
	for i := 0; i < n; i++ {
		entries = append(entries, sparse.Coord{Row: i, Col: i, Val: 1})
		cols, vals := aPerm.Row(i)
		for k, j := range cols {
			entries = append(entries, sparse.Coord{Row: i, Col: j, Val: -alpha * vals[k] * invSqrt[i] * invSqrt[j]})
		}
	}
	return coordsOracle(n, n, entries)
}

// csrFromRows writes a CSR whose row i holds the entries present[i]
// marks, in column order, with the values as given: −0 stays −0, which
// a coordinate assembly (summing from +0) could not produce.
func csrFromRows(n int, present [][]bool, val [][]float64) *sparse.CSR {
	m := &sparse.CSR{RowPtr: make([]int, n+1), Col: []int{}, Val: []float64{}, Rows: n, Cols: n}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if present[i][j] {
				m.Col = append(m.Col, j)
				m.Val = append(m.Val, val[i][j])
			}
		}
		m.RowPtr[i+1] = len(m.Col)
	}
	return m
}

// sameCSR reports the first difference between two float64 CSRs, the
// values by their bits: reflect.DeepEqual compares floats with ==, to
// which −0 and +0 are one value.
func sameCSR(got, want *sparse.CSR) error {
	switch {
	case got.Rows != want.Rows || got.Cols != want.Cols:
		return fmt.Errorf("%dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	case !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.Col, want.Col):
		return fmt.Errorf("structure %v %v, want %v %v", got.RowPtr, got.Col, want.RowPtr, want.Col)
	case got.Val32 != nil || len(got.Val) != len(want.Val):
		return fmt.Errorf("%d float64 values (float32: %t), want %d", len(got.Val), got.Val32 != nil, len(want.Val))
	}
	for e := range got.Val {
		if math.Float64bits(got.Val[e]) != math.Float64bits(want.Val[e]) {
			return fmt.Errorf("entry %d: %v (%#x), want %v (%#x)", e, got.Val[e], math.Float64bits(got.Val[e]), want.Val[e], math.Float64bits(want.Val[e]))
		}
	}
	return nil
}

// checkAssembly holds PermuteSym and BuildSystemMatrix to their oracles
// on adjacency a under permutation p.
func checkAssembly(t *testing.T, a *sparse.CSR, p *sparse.Permutation, alpha float64) {
	t.Helper()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	got, err := p.PermuteSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameCSR(got, permuteSymOracle(p, a)); err != nil {
		t.Fatalf("PermuteSym: %v", err)
	}
	w, err := core.BuildSystemMatrix(a, p, alpha)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameCSR(w, systemMatrixOracle(a, p, alpha)); err != nil {
		t.Fatalf("BuildSystemMatrix (alpha %g): %v", alpha, err)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPermuteSymMatchesCoords: a −0 edge weight, a self loop, an empty
// row and an alpha of 0 (every scaled entry −0) against the oracles.
func TestPermuteSymMatchesCoords(t *testing.T) {
	const n = 5
	present := make([][]bool, n)
	val := make([][]float64, n)
	for i := range present {
		present[i], val[i] = make([]bool, n), make([]float64, n)
	}
	edge := func(i, j int, v float64) {
		present[i][j], val[i][j] = true, v
		present[j][i], val[j][i] = true, v
	}
	edge(0, 1, math.Copysign(0, -1))
	edge(0, 3, 0.5)
	edge(1, 3, 2)
	edge(3, 3, 1.25) // self loop
	edge(2, 1, 1)    // row 4 stays empty
	a := csrFromRows(n, present, val)
	for _, perm := range [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {3, 0, 4, 2, 1}} {
		p, err := sparse.NewPermutation(perm)
		if err != nil {
			t.Fatal(err)
		}
		for _, alpha := range []float64{0.99, 0, 0.5} {
			checkAssembly(t, a, p, alpha)
		}
	}
}

// TestNewFromCoordsMatchesSortSlice: slices.SortFunc leaves duplicate
// coordinates in sort.Slice's order, so their sums keep their bits, on
// lists where most coordinates repeat with values whose sum depends on
// the order.
func TestNewFromCoordsMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := []float64{1, 1e16, -1e16, 0.1, 0.2, 0.3, math.Copysign(0, -1), 3e-300, -1}
	for trial := 0; trial < 300; trial++ {
		rows, cols := 1+rng.Intn(6), 1+rng.Intn(6)
		entries := make([]sparse.Coord, rng.Intn(400))
		for e := range entries {
			entries[e] = sparse.Coord{Row: rng.Intn(rows), Col: rng.Intn(cols), Val: vals[rng.Intn(len(vals))]}
		}
		got, err := sparse.NewFromCoords(rows, cols, entries)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameCSR(got, coordsOracle(rows, cols, entries)); err != nil {
			t.Fatalf("trial %d: NewFromCoords against the sort.Slice assembly: %v", trial, err)
		}
	}
}

// FuzzPermuteSymMatchesCoords holds PermuteSym and BuildSystemMatrix to
// the coordinate assembly on random valid CSRs — self loops, empty rows,
// ±0 and order-sensitive values — under random permutations and alphas.
func FuzzPermuteSymMatchesCoords(f *testing.F) {
	f.Add(uint8(5), int64(1), uint8(0), []byte{0, 1, 6, 1, 1, 2, 2, 3, 0, 4, 4, 5})
	f.Add(uint8(1), int64(2), uint8(1), []byte{0, 0, 6})
	f.Add(uint8(12), int64(3), uint8(2), []byte{0, 11, 1, 3, 7, 2, 7, 3, 6, 5, 5, 0, 9, 2, 4})
	f.Fuzz(func(t *testing.T, size uint8, seed int64, alphaSel uint8, data []byte) {
		n := 1 + int(size)%16
		values := []float64{1, 0.5, 2, math.Copysign(0, -1), 0, 1e16, -1e16, 3e-300, -0.25}
		present := make([][]bool, n)
		val := make([][]float64, n)
		for i := range present {
			present[i], val[i] = make([]bool, n), make([]float64, n)
		}
		for p := data; len(p) >= 3; p = p[3:] {
			i, j := int(p[0])%n, int(p[1])%n
			present[i][j], val[i][j] = true, values[int(p[2])%len(values)]
		}
		p, err := sparse.NewPermutation(rand.New(rand.NewSource(seed)).Perm(n))
		if err != nil {
			t.Fatal(err)
		}
		alpha := []float64{0.99, 0, 0.5, math.Copysign(0, -1), 1}[int(alphaSel)%5]
		checkAssembly(t, csrFromRows(n, present, val), p, alpha)
	})
}
