package spectral

import (
	"math"
	"runtime"
	"testing"

	"mogul/internal/dense"
	"mogul/internal/sparse"
)

// symTestMatrix builds a deterministic sparse symmetric matrix with a
// banded structure plus a strong diagonal, scaled so the spectrum sits
// inside [-1, 1] like a normalized adjacency.
func symTestMatrix(t testing.TB, n, band int) *sparse.CSR {
	t.Helper()
	var coords []sparse.Coord
	for i := 0; i < n; i++ {
		for off := 1; off <= band; off++ {
			j := i + off
			if j >= n {
				break
			}
			v := (splitmix(17, uint64(i*n+j)) - 0.5) / float64(band+2)
			coords = append(coords, sparse.Coord{Row: i, Col: j, Val: v}, sparse.Coord{Row: j, Col: i, Val: v})
		}
		coords = append(coords, sparse.Coord{Row: i, Col: i, Val: (splitmix(23, uint64(i)) - 0.5) * 0.8})
	}
	m, err := sparse.NewFromCoords(n, n, coords)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func denseOf(m *sparse.CSR) *dense.Matrix {
	d := dense.NewMatrix(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, j := range cols {
			d.Set(i, j, vals[k])
		}
	}
	return d
}

// TestDecomposeMatchesDenseOracle: the Lanczos pairs must match the
// dense eigensolver on a full decomposition (values and vectors up to
// sign), and the top-r truncation must pick the same values. dense.EigSym
// reduces the whole 60 x 60 matrix by Householder reflectors, a
// different route to a tridiagonal than the Lanczos; the QL the two
// share is held to the frozen Jacobi by TestDecomposeMatchesJacobiRitz.
func TestDecomposeMatchesDenseOracle(t *testing.T) {
	const n = 60
	S := symTestMatrix(t, n, 4)
	w, v, err := dense.EigSym(denseOf(S))
	if err != nil {
		t.Fatal(err)
	}

	full, err := Decompose(S, n, n, 5)
	if err != nil {
		t.Fatal(err)
	}
	if full.Rank != n {
		t.Fatalf("full decomposition kept %d of %d pairs", full.Rank, n)
	}
	for tt := 0; tt < n; tt++ {
		want := w[n-1-tt] // oracle ascending, basis descending
		if math.Abs(full.Vals[tt]-want) > 1e-8 {
			t.Fatalf("eigenvalue %d: got %.12f, want %.12f", tt, full.Vals[tt], want)
		}
		// Vectors match up to sign: compare |<u, oracle>| to 1.
		var dot float64
		for i := 0; i < n; i++ {
			dot += full.Vecs[i*n+tt] * v.At(i, n-1-tt)
		}
		if math.Abs(math.Abs(dot)-1) > 1e-6 {
			t.Fatalf("eigenvector %d: |<lanczos, oracle>| = %.9f, want 1", tt, math.Abs(dot))
		}
	}

	// Random band matrices have gapless spectra (the hard case for a
	// Krylov method), so run the truncated selection over the full
	// Krylov space; the shallow-space accuracy regime is covered by the
	// residual test below.
	const r = 7
	top, err := Decompose(S, r, n, 5)
	if err != nil {
		t.Fatal(err)
	}
	if top.Rank != r {
		t.Fatalf("rank-%d decomposition kept %d pairs", r, top.Rank)
	}
	for tt := 0; tt < r; tt++ {
		if math.Abs(top.Vals[tt]-w[n-1-tt]) > 1e-8 {
			t.Fatalf("top eigenvalue %d: got %.12f, want %.12f", tt, top.Vals[tt], w[n-1-tt])
		}
	}
}

// TestDecomposeResidualsAndOrthonormality: S u = lambda u within
// tolerance and U^T U = I for a truncated decomposition of a larger
// matrix (where the dense oracle would be too slow).
func TestDecomposeResidualsAndOrthonormality(t *testing.T) {
	const n, r = 900, 12
	S := symTestMatrix(t, n, 6)
	b, err := Decompose(S, r, 180, 9)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rank != r {
		t.Fatalf("kept %d of %d pairs", b.Rank, r)
	}
	u := make([]float64, n)
	su := make([]float64, n)
	for tt := 0; tt < r; tt++ {
		for i := 0; i < n; i++ {
			u[i] = b.Vecs[i*r+tt]
		}
		mulVecPar(S, su, u)
		var resid, norm float64
		for i := 0; i < n; i++ {
			d := su[i] - b.Vals[tt]*u[i]
			resid += d * d
			norm += u[i] * u[i]
		}
		if math.Abs(norm-1) > 1e-9 {
			t.Fatalf("eigenvector %d has norm %.12f", tt, math.Sqrt(norm))
		}
		if math.Sqrt(resid) > 1e-6 {
			t.Fatalf("eigenpair %d residual %.3e", tt, math.Sqrt(resid))
		}
		for ss := tt + 1; ss < r; ss++ {
			var dot float64
			for i := 0; i < n; i++ {
				dot += b.Vecs[i*r+tt] * b.Vecs[i*r+ss]
			}
			if math.Abs(dot) > 1e-8 {
				t.Fatalf("eigenvectors %d and %d not orthogonal: %.3e", tt, ss, dot)
			}
		}
	}
	for tt := 1; tt < r; tt++ {
		if b.Vals[tt] > b.Vals[tt-1] {
			t.Fatalf("eigenvalues not descending at %d: %g > %g", tt, b.Vals[tt], b.Vals[tt-1])
		}
	}
}

// TestDecomposeDeterministicAcrossGOMAXPROCS: the basis must be
// bit-identical at 1, 2, and 8 workers — the contract every saved
// byte of the spectral engine rests on.
func TestDecomposeDeterministicAcrossGOMAXPROCS(t *testing.T) {
	const n, r = 3000, 16
	S := symTestMatrix(t, n, 5)
	var ref *Basis
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		b, err := Decompose(S, r, 0, 41)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if ref == nil {
			ref = b
			continue
		}
		if b.Rank != ref.Rank {
			t.Fatalf("GOMAXPROCS=%d: rank %d, want %d", procs, b.Rank, ref.Rank)
		}
		for i := range ref.Vals {
			if math.Float64bits(b.Vals[i]) != math.Float64bits(ref.Vals[i]) {
				t.Fatalf("GOMAXPROCS=%d: eigenvalue %d differs in bits", procs, i)
			}
		}
		for i := range ref.Vecs {
			if math.Float64bits(b.Vecs[i]) != math.Float64bits(ref.Vecs[i]) {
				t.Fatalf("GOMAXPROCS=%d: embedding element %d differs in bits", procs, i)
			}
		}
	}
}

// TestDecomposeBreakdown: a matrix whose Krylov space is smaller than
// the requested rank (here rank-1: every row identical) must truncate
// gracefully instead of fabricating pairs.
func TestDecomposeBreakdown(t *testing.T) {
	const n = 12
	var coords []sparse.Coord
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			coords = append(coords, sparse.Coord{Row: i, Col: j, Val: 1.0 / n})
		}
	}
	S, err := sparse.NewFromCoords(n, n, coords)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decompose(S, 6, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rank < 1 || b.Rank > 6 {
		t.Fatalf("breakdown kept %d pairs", b.Rank)
	}
	if math.Abs(b.Vals[0]-1) > 1e-9 {
		t.Fatalf("top eigenvalue of the averaging matrix: got %g, want 1", b.Vals[0])
	}
}

// TestDecomposeRejectsBadInput: shape errors come back as errors.
func TestDecomposeRejectsBadInput(t *testing.T) {
	rect, err := sparse.NewFromCoords(3, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompose(rect, 2, 0, 1); err == nil {
		t.Fatal("accepted a non-square matrix")
	}
	sq := symTestMatrix(t, 5, 2)
	if _, err := Decompose(sq, 0, 0, 1); err == nil {
		t.Fatal("accepted rank 0")
	}
}
