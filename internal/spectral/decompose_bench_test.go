package spectral

import (
	"fmt"
	"testing"

	"mogul/internal/dataset"
	"mogul/internal/knn"
	"mogul/internal/sparse"
)

// BenchmarkDecompose prices the offline stage of the spectral engine at
// the spectral_id workload's shape — the normalized exact 5-NN
// adjacency of the d = 8 mixture
// with ~10-point classes at n = 20000, rank 64, 2*64 + 16 = 144 Lanczos
// steps — and at n = 10^5, where the 144 basis vectors alone hold
// 144 * n * 8 bytes = 115 MB. The graph is built once per size, outside
// the timer. Run it at -cpu 1,2: the reorthogonalization and the Ritz
// assembly fan out over par blocks.
//
//	go test -run '^$' -bench 'BenchmarkDecompose' -benchtime 3x -cpu 1,2 ./internal/spectral
func BenchmarkDecompose(b *testing.B) {
	for _, n := range []int{20_000, 100_000} {
		b.Run(fmt.Sprintf("n=%d/r=64", n), func(b *testing.B) {
			S := mixtureAdjacency(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Decompose(S, 64, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRayleighRitz prices the Rayleigh-Ritz step alone on the
// Lanczos tridiagonal of BenchmarkDecompose's n = 20000 shape (m = 144),
// run once outside the timer: the implicit QL on the tridiagonal that
// Decompose takes. docs/SPECTRAL.md has its time next to the dense
// Jacobi step it replaced.
//
//	go test -run '^$' -bench 'BenchmarkRayleighRitz' -benchmem -benchtime 20x ./internal/spectral
func BenchmarkRayleighRitz(b *testing.B) {
	_, alphas, betas := lanczos(mixtureAdjacency(b, 20_000), 2*64+16, 0)
	b.Run(fmt.Sprintf("m=%d/ql", len(alphas)), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := rayleighRitz(alphas, betas, 64); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func mixtureAdjacency(b testing.TB, n int) *sparse.CSR {
	b.Helper()
	ds := dataset.Mixture(dataset.MixtureConfig{
		N: n, Classes: n / 10, Dim: 8, WithinStd: 0.25, Separation: 3.0, Seed: 1,
	})
	g, err := knn.BuildGraph(ds.Points, knn.GraphConfig{K: 5})
	if err != nil {
		b.Fatal(err)
	}
	return g.NormalizedAdjacency()
}
