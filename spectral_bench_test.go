package mogul

// Spectral frontier benchmarks (CI bench-smoke; docs/SPECTRAL.md has
// the tables they fill):
//
//	go test -run '^$' -bench 'BenchmarkSpectral' -benchmem -benchtime 5x -timeout 40m .
//
// Build time and per-query latency at n in {10k, 100k}, with recall@10
// against the exact Manifold Ranking oracle attached via
// b.ReportMetric. The acceptance bars for the truncated-eigenbasis
// engine: recall@10 >= 0.85 vs exact at n=100k, with per-query
// latency below the EMR frontier point at matched recall — the
// spectral scan is at most one kernel-routed dot product per item over
// a flat n x r array (r=64 here vs EMR's s=24 gathers against p=2560
// anchor columns), and on this clustered workload its norm bound skips
// nearly every row outside the query's hop ball, so the query rows
// price the head — on this workload a ~10-item component, solved in
// place — and, out of sample, the attachment's tree search, rather than
// n*r. BenchmarkSpectralHead prices the three ways a head can end.
//
// The workload matches the EMR bench exactly (same mixture, same
// query pool, same oracle) so the two engines' rows are directly
// comparable: micro-clusters of ~10 near-duplicates in a
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

// BenchmarkSpectralHead prices an id query under each of the three ways
// its head can end (docs/SPECTRAL.md "adaptive hops"), on a dedicated
// searcher, with the mean rounds the expansion ran and the mean hop ball
// attached:
//
//   - solved-10: the benchmark's shape, components of ~10 items — closed
//     after ~3 rounds and finished by one small Cholesky solve;
//   - closed-over-gate: components of ~150 items — closed, but the solve
//     would cost more than the hop budget holds, so the loop iterates the
//     component until the budget stops it;
//   - budget-stopped: four overlapping blobs on a k = 10 graph — the
//     frontier saturates at most of the corpus and never closes.
//
// One op is a pass over 64 query ids, so that the 5-iteration CI smoke
// run times 320 queries, not five cold ones; us/query is the number to
// read.
func BenchmarkSpectralHead(b *testing.B) {
	const n = 6000
	for _, c := range []struct {
		name string
		cfg  MixtureConfig
		opts Options
	}{
		{"solved-10", MixtureConfig{N: n, Classes: n / 10, Dim: 8, WithinStd: 0.25, Separation: 3.0, Seed: 11}, Options{Seed: 11}},
		{"closed-over-gate", MixtureConfig{N: n, Classes: n / 150, Dim: 8, WithinStd: 0.25, Separation: 3.0, Seed: 11}, Options{Seed: 11}},
		{"budget-stopped", MixtureConfig{N: n, Classes: 4, Dim: 8, WithinStd: 1.0, Separation: 1.5, Seed: 11}, Options{Seed: 11, GraphK: 10}},
	} {
		var e *SpectralIndex // built on the first of b.Run's calls, kept for the rest
		b.Run(c.name, func(b *testing.B) {
			if e == nil {
				var err error
				if e, err = BuildSpectral(NewMixture(c.cfg).Points, c.opts, spectralBenchOptions); err != nil {
					b.Fatal(err)
				}
			}
			sr := e.NewSearcher()
			queries := benchQueries(n, 64)
			var rounds, ball int
			for _, q := range queries { // warm: sizes the scratch
				if _, err := sr.TopK(q, 10); err != nil {
					b.Fatal(err)
				}
				rounds += sr.rounds
				ball += len(sr.touched)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := sr.TopK(q, 10); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(queries)), "us/query")
			b.ReportMetric(float64(rounds)/float64(len(queries)), "rounds/query")
			b.ReportMetric(float64(ball)/float64(len(queries)), "ball/query")
		})
	}
}
