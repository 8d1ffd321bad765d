package spectral

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"mogul/internal/dense"
	"mogul/internal/par"
	"mogul/internal/sparse"
	"mogul/internal/vec"
)

// decomposeOracle is Decompose as it was before the reorthogonalization
// was fused into three fan-outs per step and the Ritz vectors were
// assembled row by row: one par.SumBlocks per inner product and one
// par.For per update pass, and U = V Y written one column of every row
// at a time. Its Rayleigh-Ritz step is Decompose's own (rayleighRitz),
// so Decompose must return its Basis to the bit.
func decomposeOracle(S *sparse.CSR, rank, steps int, seed int64) (*Basis, error) {
	b, _, err := decomposeOracleZeros(S, rank, steps, seed, rayleighRitz)
	return b, err
}

// ritzStep is a Rayleigh-Ritz step on the Lanczos tridiagonal, as
// rayleighRitz is.
type ritzStep func(alphas, betas []float64, rank int) (vals, Yt []float64, err error)

// jacobiRitz is rayleighRitz through the dense cyclic Jacobi eigensolver
// (jacobiEigSym) on the explicit m x m T, the step Decompose took before
// it solved the tridiagonal by QL. Its eigenvectors carry no sign
// convention.
func jacobiRitz(alphas, betas []float64, rank int) (vals, Yt []float64, err error) {
	m := len(alphas)
	T := dense.NewMatrix(m, m)
	for j := 0; j < m; j++ {
		T.Set(j, j, alphas[j])
		if j+1 < m {
			T.Set(j, j+1, betas[j])
			T.Set(j+1, j, betas[j])
		}
	}
	ritz, Y := jacobiEigSym(T)
	rank = min(rank, m)
	vals = make([]float64, rank)
	Yt = make([]float64, m*rank)
	for t := range vals {
		vals[t] = max(-1, min(1, ritz[m-1-t]))
		for j := 0; j < m; j++ {
			Yt[j*rank+t] = Y.At(j, m-1-t)
		}
	}
	return vals, Yt, nil
}

// jacobiEigSym is dense.EigSym as it was before it became a Householder
// reduction into dense.EigTridiag's QL, frozen here so that jacobiRitz
// stays independent of the QL it checks: cyclic Jacobi sweeps on a copy
// of the symmetric a scaled by a power of two to unit max-abs entry,
// until the off-diagonal Frobenius norm is at most 1e-12·n·max|a| or 64
// sweeps have run, then eigenvalues ascending with V's columns. Its
// input checks are left out: T is symmetric and finite.
func jacobiEigSym(a *dense.Matrix) (w []float64, v *dense.Matrix) {
	n := a.Rows
	var maxAbs float64
	for _, x := range a.Data {
		maxAbs = max(maxAbs, math.Abs(x))
	}
	_, exp := math.Frexp(maxAbs)
	maxAbs = math.Ldexp(maxAbs, -exp)
	md := a.Clone().Data
	for i, x := range md {
		md[i] = math.Ldexp(x, -exp)
	}
	vt := dense.Identity(n).Data // row p is eigenvector p
	for sweep := 0; sweep < 64; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for _, x := range md[i*n+i+1 : (i+1)*n] {
				off += x * x
			}
		}
		if math.Sqrt(2*off) <= 1e-12*maxAbs*float64(n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := md[p*n+q]
				if math.Abs(apq) <= 1e-300 {
					continue
				}
				app, aqq := md[p*n+p], md[q*n+q]
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				for k := p; k < n*n; k += n {
					akp, akq := md[k], md[k+q-p]
					md[k] = c*akp - s*akq
					md[k+q-p] = s*akp + c*akq
				}
				vec.Rot(md[p*n:(p+1)*n], md[q*n:(q+1)*n], c, s)
				vec.Rot(vt[p*n:(p+1)*n], vt[q*n:(q+1)*n], c, s)
			}
		}
	}
	w = make([]float64, n)
	for i := 0; i < n; i++ {
		w[i] = math.Ldexp(md[i*n+i], exp)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return w[idx[i]] < w[idx[j]] })
	sortedW := make([]float64, n)
	sortedV := dense.NewMatrix(n, n)
	for newCol, oldCol := range idx {
		sortedW[newCol] = w[oldCol]
		for r, x := range vt[oldCol*n : (oldCol+1)*n] {
			sortedV.Data[r*n+newCol] = x
		}
	}
	return sortedW, sortedV
}

// decomposeOracleZeros is decomposeOracle that also counts the exact-zero
// coefficients it met inside a group of four, at an index below
// k - k%4 of a pass over k basis vectors: there Decompose's Dot4 group
// holds a zero, and its compacted Axpy4 groups differ from the groups
// of four indices. ritz is its Rayleigh-Ritz step.
func decomposeOracleZeros(S *sparse.CSR, rank, steps int, seed int64, ritz ritzStep) (*Basis, int, error) {
	zeros := 0
	if S.Rows != S.Cols {
		return nil, 0, fmt.Errorf("spectral: non-square %dx%d matrix", S.Rows, S.Cols)
	}
	n := S.Rows
	if n < 1 {
		return nil, 0, fmt.Errorf("spectral: empty matrix")
	}
	if rank < 1 {
		return nil, 0, fmt.Errorf("spectral: rank must be positive, got %d", rank)
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
				if coeff[i] == 0 && i < len(V)-len(V)%4 {
					zeros++
				}
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

	vals, Yt, err := ritz(alphas, betas, rank)
	if err != nil {
		return nil, 0, err
	}
	rank = len(vals)
	vecs := make([]float64, n*rank)
	par.For(n, 128, func(lo, hi int) {
		for j, vj := range V {
			vj := vj[lo:hi]
			for t := 0; t < rank; t++ {
				y := Yt[j*rank+t]
				if y == 0 {
					continue
				}
				for x, vx := range vj {
					vecs[(lo+x)*rank+t] += y * vx
				}
			}
		}
	})
	return &Basis{Rank: rank, Vals: vals, Vecs: vecs}, zeros, nil
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

// blockDiagonalMatrix places symTestMatrix blocks of the given orders
// along the diagonal, with no coupling between them: the adjacency of a
// graph of disconnected components, as the spectral engine's mixture
// corpora give.
func blockDiagonalMatrix(t testing.TB, orders ...int) *sparse.CSR {
	t.Helper()
	var coords []sparse.Coord
	at := 0
	for b, order := range orders {
		B := symTestMatrix(t, order, 1+b%4)
		for i := 0; i < order; i++ {
			cols, vals := B.Row(i)
			for k, j := range cols {
				coords = append(coords, sparse.Coord{Row: at + i, Col: at + j, Val: vals[k]})
			}
		}
		at += order
	}
	S, err := sparse.NewFromCoords(at, at, coords)
	if err != nil {
		t.Fatal(err)
	}
	return S
}

// wilkinsonMatrix is Wilkinson's W⁺ of order n (|i − n/2| on the
// diagonal, couplings 1) scaled by 1/(n/2 + 1) into [-1, 1]: its
// eigenvalues come in nearly equal pairs.
func wilkinsonMatrix(t testing.TB, n int) *sparse.CSR {
	t.Helper()
	var coords []sparse.Coord
	for i := 0; i < n; i++ {
		coords = append(coords, sparse.Coord{Row: i, Col: i, Val: math.Abs(float64(i-n/2)) / float64(n/2+1)})
		if i+1 < n {
			coords = append(coords, sparse.Coord{Row: i, Col: i + 1, Val: 1 / float64(n/2+1)}, sparse.Coord{Row: i + 1, Col: i, Val: 1 / float64(n/2+1)})
		}
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
// worker and at several. The last three cases reach the basis kernels'
// edges: the default rank 64 at its default 144 steps, so the basis
// passes through every size mod 4 and the last block (443 of 3003
// rows) is no multiple of 8; rank 47, whose embedding rows (5·8 + 4 +
// 3) reach vec.Axpy4's eight-, four- and one-column steps and whose 110
// steps leave the Ritz assembly two rows of Yᵀ past its groups of four;
// and disconnected components, where the
// case asserts what every case here meets: passes whose small
// coefficients cancel to an exact zero inside a group of four, which
// the update skips.
func TestDecomposeMatchesOracleBits(t *testing.T) {
	cases := []struct {
		name        string
		S           *sparse.CSR
		rank, steps int
		seed        int64
		clamped     bool
		zeros       bool
	}{
		{name: "one-short-block", S: symTestMatrix(t, 300, 4), rank: 8, seed: 1},
		{name: "ragged-last-block", S: symTestMatrix(t, 3000, 5), rank: 16, seed: 41},
		{name: "64-wide-blocks", S: symTestMatrix(t, 33001, 3), rank: 6, steps: 30, seed: 7},
		{name: "breakdown", S: averagingMatrix(t, 12), rank: 6, seed: 3, clamped: true},
		{name: "steps=n", S: symTestMatrix(t, 60, 4), rank: 60, steps: 60, seed: 5},
		{name: "rank-clamped", S: fewValuesMatrix(t, 700), rank: 10, seed: 9, clamped: true},
		{name: "rank-64-mixture", S: mixtureAdjacency(t, 3003), rank: 64, seed: 11},
		{name: "rank-47-tails", S: symTestMatrix(t, 1500, 4), rank: 47, seed: 13},
		{name: "block-diagonal-zeros", S: blockDiagonalMatrix(t, 40, 7, 33, 5, 60, 9, 26), rank: 24, seed: 17, zeros: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, zeros, err := decomposeOracleZeros(tc.S, tc.rank, tc.steps, tc.seed, rayleighRitz)
			if err != nil {
				t.Fatal(err)
			}
			if tc.zeros && zeros == 0 {
				t.Fatal("the oracle met no exact-zero coefficient inside a group of four")
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

// FuzzDecomposeMatchesOracle: on small sparse symmetric matrices (n up
// to 200, so one par block of every length mod 4 and mod 8) with fuzzed
// rank, steps and seed, Decompose returns decomposeOracle's Basis bit
// for bit, or fails where it fails. raw holds four bytes an entry: row,
// column, an int8 mantissa and a binary exponent down to 2⁻⁶³, so
// entries span sparse, zero, tiny and repeated values; each entry goes
// in at (i, j) and (j, i).
func FuzzDecomposeMatchesOracle(f *testing.F) {
	f.Add(uint8(40), uint8(12), uint8(0), int64(1), []byte{0, 1, 64, 0, 1, 2, 192, 1, 3, 3, 100, 2, 5, 9, 7, 0, 20, 30, 255, 3})
	f.Add(uint8(199), uint8(64), uint8(0), int64(7), []byte{1, 0, 1, 0, 2, 1, 1, 0, 3, 2, 1, 0, 4, 3, 1, 0, 150, 151, 127, 0})
	f.Add(uint8(9), uint8(3), uint8(9), int64(-3), []byte{0, 0, 1, 0, 1, 1, 1, 0, 2, 2, 1, 0})
	f.Add(uint8(120), uint8(30), uint8(70), int64(42), []byte{10, 11, 128, 40, 11, 12, 3, 63, 60, 61, 77, 5, 61, 62, 200, 6, 100, 119, 50, 1})
	f.Fuzz(func(t *testing.T, order, rank8, steps8 uint8, seed int64, raw []byte) {
		n := 1 + int(order)%200
		coords := make([]sparse.Coord, 0, len(raw)/2)
		for e := 0; e+4 <= len(raw); e += 4 {
			i, j := int(raw[e])%n, int(raw[e+1])%n
			v := math.Ldexp(float64(int8(raw[e+2])), -int(raw[e+3]%64))
			coords = append(coords, sparse.Coord{Row: i, Col: j, Val: v})
			if i != j {
				coords = append(coords, sparse.Coord{Row: j, Col: i, Val: v})
			}
		}
		S, err := sparse.NewFromCoords(n, n, coords)
		if err != nil {
			t.Fatal(err)
		}
		rank, steps := 1+int(rank8)%n, int(steps8)%(n+1)
		want, wantErr := decomposeOracle(S, rank, steps, seed)
		got, err := Decompose(S, rank, steps, seed)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("n=%d rank=%d steps=%d: error %v, oracle %v", n, rank, steps, err, wantErr)
		}
		if err == nil {
			sameBasisBits(t, got, want)
		}
	})
}

// TestDecomposeMatchesJacobiRitz: Decompose, whose Rayleigh-Ritz step is
// the tridiagonal QL of dense.EigTridiag, against decomposeOracle with
// the dense Jacobi step it replaced (jacobiRitz), on the three cases of
// TestDecomposeMatchesOracleBits that reach the basis kernels' edges and
// on Wilkinson's W₂₁⁺, whose eigenvalues come in pairs that agree to
// 7e-15 .. 1.5e-6. Both run the case's Lanczos (its default 2·rank + 16
// steps) and keep every Ritz pair of its tridiagonal T, so no cluster
// of values is cut at the rank. The two Lanczos loops give the same T
// bit for bit, so what differs is the eigensolver alone, and ‖T‖ <= 1
// on these matrices:
//   - every Ritz value within ritzValueTol of the oracle's (measured:
//     5.5e-14 at most);
//   - values within clusterGap of their neighbours form a cluster (four
//     of W₂₁⁺'s pairs; none elsewhere), and each Ritz vector lies within
//     sine ritzAngleTol/δ of the span of the oracle's vectors of its
//     cluster, δ being the gap from the cluster to the nearest other
//     value: alone in its cluster, the angle between the two vectors;
//     in a cluster, the angle to the oracle's subspace. Jacobi's
//     residuals ‖Tz − λz‖ reach 1.6e-12 on rank-47-tails (its stopping
//     test is absolute, at 1e-12·(1 + max|T|)·m), QL's 7e-16, and the
//     measured sine × δ is 1.7e-12 at most.
func TestDecomposeMatchesJacobiRitz(t *testing.T) {
	const ritzValueTol, ritzAngleTol, clusterGap = 1e-12, 5e-12, 1e-6
	cases := []struct {
		name string
		S    *sparse.CSR
		rank int
		seed int64
	}{
		{name: "rank-64-mixture", S: mixtureAdjacency(t, 3003), rank: 64, seed: 11},
		{name: "rank-47-tails", S: symTestMatrix(t, 1500, 4), rank: 47, seed: 13},
		{name: "block-diagonal-zeros", S: blockDiagonalMatrix(t, 40, 7, 33, 5, 60, 9, 26), rank: 24, seed: 17},
		{name: "wilkinson", S: wilkinsonMatrix(t, 21), rank: 21, seed: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			steps := min(2*tc.rank+16, tc.S.Rows)
			want, _, err := decomposeOracleZeros(tc.S, steps, steps, tc.seed, jacobiRitz)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decompose(tc.S, steps, steps, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			m, n := want.Rank, tc.S.Rows
			if got.Rank != m {
				t.Fatalf("rank %d, oracle %d", got.Rank, m)
			}
			col := func(b *Basis, t int) []float64 {
				u := make([]float64, n)
				for i := range u {
					u[i] = b.Vecs[i*m+t]
				}
				return u
			}
			var worstVal, worstSin float64
			for lo := 0; lo < m; {
				hi := lo + 1
				for hi < m && want.Vals[hi-1]-want.Vals[hi] < clusterGap {
					hi++
				}
				gap := math.Inf(1)
				if lo > 0 {
					gap = want.Vals[lo-1] - want.Vals[lo]
				}
				if hi < m {
					gap = min(gap, want.Vals[hi-1]-want.Vals[hi])
				}
				for tt := lo; tt < hi; tt++ {
					worstVal = max(worstVal, math.Abs(got.Vals[tt]-want.Vals[tt]))
					if d := math.Abs(got.Vals[tt] - want.Vals[tt]); d > ritzValueTol {
						t.Fatalf("Ritz value %d: %.17g, oracle %.17g", tt, got.Vals[tt], want.Vals[tt])
					}
					r := col(got, tt)
					for s := lo; s < hi; s++ {
						u := col(want, s)
						var c float64
						for i := range u {
							c += r[i] * u[i]
						}
						for i := range u {
							r[i] -= c * u[i]
						}
					}
					var sin float64
					for _, x := range r {
						sin += x * x
					}
					sin = math.Sqrt(sin)
					worstSin = max(worstSin, sin*gap)
					if sin > ritzAngleTol/gap {
						t.Fatalf("Ritz vector %d (cluster %d-%d, gap %.3g): sine %.3g to the oracle's span", tt, lo, hi-1, gap, sin)
					}
				}
				lo = hi
			}
			t.Logf("%d pairs: largest value difference %.3g, largest sine × gap %.3g", m, worstVal, worstSin)
		})
	}
}
