package mogul

// Benchmarks backing BENCH_spectral.json (CI bench-smoke): spectral
// engine build time and per-query latency at n in {10k, 100k}, with
// recall@10 against the exact Manifold Ranking oracle attached via
// b.ReportMetric. The acceptance bars for the truncated-eigenbasis
// engine: recall@10 >= 0.85 vs exact at n=100k, with per-query
// latency below the EMR frontier point at matched recall — the
// spectral scan is at most one kernel-routed dot product per item over
// a flat n x r array (r=64 here vs EMR's s=24 gathers against p=2560
// anchor columns), and on this clustered workload its norm bound skips
// nearly every row outside the query's hop ball, so the query rows
// price the hop loop (and, out of sample, the O(n*d) attachment sweep)
// rather than n*r.
//
// The workload matches the EMR bench exactly (same mixture, same
// query pool, same oracle) so the two engines' BENCH files are
// directly comparable: micro-clusters of ~10 near-duplicates in a
// low-intrinsic-dimension feature space, queried out-of-sample with
// perturbed stored points. On this workload the adaptive hop
// expansion saturates the query's graph component and carries the
// resolvent almost exactly, so recall stays high at ranks far below
// the cluster count — the regime where a pure truncated basis
// collapses (docs/SPECTRAL.md).

import (
	"fmt"
	"sync"
	"testing"

	"mogul/internal/eval"
)

// spectralBenchSizes: directly comparable to emrBenchSizes.
var spectralBenchSizes = []int{10_000, 100_000}

// spectralBenchOptions is the frontier point the acceptance criteria
// are pinned to; mogul-bench -exp spectral sweeps rank across the
// rest of the frontier.
var spectralBenchOptions = SpectralOptions{Rank: 64}

type spectralBenchFixture struct {
	pts     []Vector
	queries []Vector
	engine  *SpectralIndex
	recall  float64 // recall@10 vs the exact oracle, mean over queries
}

var (
	spectralBenchMu       sync.Mutex
	spectralBenchFixtures = map[int]*spectralBenchFixture{}
)

func spectralBenchFixtureFor(b *testing.B, n int) *spectralBenchFixture {
	b.Helper()
	spectralBenchMu.Lock()
	defer spectralBenchMu.Unlock()
	if f, ok := spectralBenchFixtures[n]; ok {
		return f
	}
	// Identical workload to the EMR bench: same points, same queries.
	pts, queries := emrBenchPoints(n)
	engine, err := BuildSpectral(pts, Options{Seed: 11, ApproximateGraph: true}, spectralBenchOptions)
	if err != nil {
		b.Fatal(err)
	}
	exact, err := Build(pts, Options{Exact: true, ApproximateGraph: true, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	var recall float64
	for _, q := range queries {
		ref, err := exact.TopKVector(q, 10)
		if err != nil {
			b.Fatal(err)
		}
		got, err := engine.TopKVector(q, 10)
		if err != nil {
			b.Fatal(err)
		}
		recall += eval.PAtK(eval.TopKIDs(got), eval.TopKIDs(ref))
	}
	recall /= float64(len(queries))
	f := &spectralBenchFixture{pts: pts, queries: queries, engine: engine, recall: recall}
	spectralBenchFixtures[n] = f
	return f
}

// BenchmarkSpectralBuild prices BuildSpectral end to end (k-NN graph,
// normalization, rank-r Lanczos decomposition) at each scale.
func BenchmarkSpectralBuild(b *testing.B) {
	for _, n := range spectralBenchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts, _ := emrBenchPoints(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := BuildSpectral(pts, Options{Seed: 11, ApproximateGraph: true}, spectralBenchOptions); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSpectralTopKVector prices the out-of-sample query path —
// the serving hot path — and attaches recall@10 vs the exact oracle.
func BenchmarkSpectralTopKVector(b *testing.B) {
	for _, n := range spectralBenchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f := spectralBenchFixtureFor(b, n)
			sr := f.engine.NewSearcher()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sr.TopKVector(f.queries[i%len(f.queries)], 10); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(f.recall, "recall@10")
		})
	}
}

// BenchmarkSpectralTopK prices the in-sample path (seed item by id)
// through the pooled engine-level entry point.
func BenchmarkSpectralTopK(b *testing.B) {
	for _, n := range spectralBenchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f := spectralBenchFixtureFor(b, n)
			queries := benchQueries(n, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.engine.TopK(queries[i%len(queries)], 10); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(f.recall, "recall@10")
		})
	}
}
