package spectral

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"mogul/internal/dense"
	"mogul/internal/par"
	"mogul/internal/sparse"
)

// decomposeOracle is Decompose as it was before the reorthogonalization
// was fused into three fan-outs per step and the Ritz vectors were
// assembled row by row: one par.SumBlocks per inner product and one
// par.For per update pass, and U = V Y written one column of every row
// at a time. Decompose must return its Basis to the bit.
func decomposeOracle(S *sparse.CSR, rank, steps int, seed int64) (*Basis, error) {
	if S.Rows != S.Cols {
		return nil, fmt.Errorf("spectral: non-square %dx%d matrix", S.Rows, S.Cols)
	}
	n := S.Rows
	if n < 1 {
		return nil, fmt.Errorf("spectral: empty matrix")
	}
	if rank < 1 {
		return nil, fmt.Errorf("spectral: rank must be positive, got %d", rank)
	}
	if rank > n {
		rank = n
	}
	if steps <= 0 {
		steps = 2*rank + 16
	}
	if steps < rank {
		steps = rank
	}
	if steps > n {
		steps = n
	}

	V := make([][]float64, 0, steps)
	alphas := make([]float64, 0, steps)
	betas := make([]float64, 0, steps)

	v0 := make([]float64, n)
	par.For(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v0[i] = splitmix(uint64(seed)^0x9e3779b97f4a7c15, uint64(i)) - 0.5
		}
	})
	if norm := math.Sqrt(dotPar(v0, v0)); norm > 0 {
		scalePar(v0, 1/norm)
	} else {
		v0[0] = 1
	}
	V = append(V, v0)

	w := make([]float64, n)
	coeff := make([]float64, 0, steps)
	for j := 0; j < steps; j++ {
		vj := V[j]
		mulVecPar(S, w, vj)
		alpha := dotPar(w, vj)
		alphas = append(alphas, alpha)

		for pass := 0; pass < 2; pass++ {
			coeff = coeff[:0]
			for i := range V {
				coeff = append(coeff, dotPar(w, V[i]))
			}
			par.For(n, 0, func(lo, hi int) {
				for i, c := range coeff {
					if c == 0 {
						continue
					}
					vi := V[i][lo:hi]
					wb := w[lo:hi]
					for x := range wb {
						wb[x] -= c * vi[x]
					}
				}
			})
		}

		beta := math.Sqrt(dotPar(w, w))
		if j+1 >= steps {
			break
		}
		if beta <= breakdownTol {
			break
		}
		betas = append(betas, beta)
		next := make([]float64, n)
		inv := 1 / beta
		par.For(n, 0, func(lo, hi int) {
			wb := w[lo:hi]
			nb := next[lo:hi]
			for x := range wb {
				nb[x] = wb[x] * inv
			}
		})
		V = append(V, next)
	}

	m := len(V)
	T := dense.NewMatrix(m, m)
	for j := 0; j < m; j++ {
		T.Set(j, j, alphas[j])
		if j+1 < m {
			T.Set(j, j+1, betas[j])
			T.Set(j+1, j, betas[j])
		}
	}
	ritz, Y, err := dense.EigSym(T)
	if err != nil {
		return nil, fmt.Errorf("spectral: Rayleigh-Ritz eigensolve: %w", err)
	}

	if rank > m {
		rank = m
	}
	vals := make([]float64, rank)
	for t := 0; t < rank; t++ {
		v := ritz[m-1-t]
		if v > 1 {
			v = 1
		}
		if v < -1 {
			v = -1
		}
		vals[t] = v
	}

	vecs := make([]float64, n*rank)
	par.For(n, 128, func(lo, hi int) {
		for j := 0; j < m; j++ {
			vj := V[j][lo:hi]
			for t := 0; t < rank; t++ {
				y := Y.At(j, m-1-t)
				if y == 0 {
					continue
				}
				for x, vx := range vj {
					vecs[(lo+x)*rank+t] += y * vx
				}
			}
		}
	})
	return &Basis{Rank: rank, Vals: vals, Vecs: vecs}, nil
}

// averagingMatrix is TestDecomposeBreakdown's matrix: every entry 1/n,
// so the Krylov space of any start vector has dimension at most two.
func averagingMatrix(t testing.TB, n int) *sparse.CSR {
	t.Helper()
	var coords []sparse.Coord
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			coords = append(coords, sparse.Coord{Row: i, Col: j, Val: 1.0 / float64(n)})
		}
	}
	S, err := sparse.NewFromCoords(n, n, coords)
	if err != nil {
		t.Fatal(err)
	}
	return S
}

// fewValuesMatrix is diagonal with three distinct values, so the Krylov
// space is three-dimensional and a larger rank is clamped to it.
func fewValuesMatrix(t testing.TB, n int) *sparse.CSR {
	t.Helper()
	coords := make([]sparse.Coord, n)
	for i := range coords {
		coords[i] = sparse.Coord{Row: i, Col: i, Val: []float64{0.9, -0.25, 0.5}[i%3]}
	}
	S, err := sparse.NewFromCoords(n, n, coords)
	if err != nil {
		t.Fatal(err)
	}
	return S
}

func sameBasisBits(t *testing.T, got, want *Basis) {
	t.Helper()
	if got.Rank != want.Rank || len(got.Vals) != len(want.Vals) || len(got.Vecs) != len(want.Vecs) {
		t.Fatalf("shape: rank %d, %d vals, %d vecs; oracle rank %d, %d vals, %d vecs",
			got.Rank, len(got.Vals), len(got.Vecs), want.Rank, len(want.Vals), len(want.Vecs))
	}
	for i := range want.Vals {
		if math.Float64bits(got.Vals[i]) != math.Float64bits(want.Vals[i]) {
			t.Fatalf("eigenvalue %d: %v, oracle %v", i, got.Vals[i], want.Vals[i])
		}
	}
	for i := range want.Vecs {
		if math.Float64bits(got.Vecs[i]) != math.Float64bits(want.Vecs[i]) {
			t.Fatalf("embedding element %d (row %d, column %d): %v, oracle %v",
				i, i/want.Rank, i%want.Rank, got.Vecs[i], want.Vecs[i])
		}
	}
}

// TestDecomposeMatchesOracleBits: Decompose returns decomposeOracle's
// Basis bit for bit across the par block shapes (one short block, a
// ragged last block, 64 blocks wider than the 512 floor), a Krylov
// breakdown, a full-depth run and a rank the Krylov space clamps, at one
// worker and at several.
func TestDecomposeMatchesOracleBits(t *testing.T) {
	cases := []struct {
		name        string
		S           *sparse.CSR
		rank, steps int
		seed        int64
		clamped     bool
	}{
		{name: "one-short-block", S: symTestMatrix(t, 300, 4), rank: 8, seed: 1},
		{name: "ragged-last-block", S: symTestMatrix(t, 3000, 5), rank: 16, seed: 41},
		{name: "64-wide-blocks", S: symTestMatrix(t, 33001, 3), rank: 6, steps: 30, seed: 7},
		{name: "breakdown", S: averagingMatrix(t, 12), rank: 6, seed: 3, clamped: true},
		{name: "steps=n", S: symTestMatrix(t, 60, 4), rank: 60, steps: 60, seed: 5},
		{name: "rank-clamped", S: fewValuesMatrix(t, 700), rank: 10, seed: 9, clamped: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := decomposeOracle(tc.S, tc.rank, tc.steps, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			if tc.clamped != (want.Rank < tc.rank) {
				t.Fatalf("oracle kept %d of %d pairs; case expects clamped=%v", want.Rank, tc.rank, tc.clamped)
			}
			for _, procs := range []int{1, 3} {
				prev := runtime.GOMAXPROCS(procs)
				got, err := Decompose(tc.S, tc.rank, tc.steps, tc.seed)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
				}
				sameBasisBits(t, got, want)
			}
		})
	}
}
