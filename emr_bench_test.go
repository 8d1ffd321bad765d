package mogul

// EMR frontier benchmarks (CI bench-smoke; docs/EMR.md has the table
// they fill):
//
//	go test -run '^$' -bench 'BenchmarkEMR' -benchmem -benchtime 5x -timeout 40m .
//
// Build time and per-query latency at n in {10k, 100k}, with recall@10
// against the exact Manifold Ranking oracle and the rows the scan scored
// per query attached via b.ReportMetric. The acceptance bars for the
// anchor-graph engine: recall@10 >= 0.9 vs exact, and a query that
// scores a few percent of the rows — rows/query is the number to watch,
// because the query is no longer a pass over every H column.
//
// What a query costs now (docs/EMR.md has the measured split): attaching
// the vector to its s nearest of p anchors, the s-row combine z = M rhs
// (p*s multiply-adds), one gathered bound per anchor cell (~50 anchors
// each, so ~50*p multiply-adds — the largest term), and s multiply-adds
// per row of the cells the bound could not rule out. Every term but the
// last is a function of p alone and the last is a small share of n, so
// latency grows with n far slower than the 7x an exhaustive pass over
// the H columns shows from 10k to 100k at this p.
//
// The workload is the regime the engine targets (docs/EMR.md):
// fine-grained retrieval over micro-clusters of ~10 near-duplicates
// in a low-intrinsic-dimension feature space, queried out-of-sample
// with perturbed stored points. Anchor resolution is what recall
// buys: s=24 widens each point's attachment support past the default
// 5, and p=2560 is what holds recall@10 >= 0.9 at n=100k; with no
// solve left, p costs build time, memory and the bound pass.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mogul/internal/eval"
)

// emrBenchSizes: adjacent entries are 10x apart in n.
var emrBenchSizes = []int{10_000, 100_000}

// emrBenchOptions is the frontier point the acceptance criteria are
// pinned to; mogul-bench -exp emr sweeps the rest of the frontier.
var emrBenchOptions = EMROptions{NumAnchors: 2560, NumNearestAnchors: 24}

type emrBenchFixture struct {
	pts     []Vector
	queries []Vector
	engine  *EMRIndex
	ids     []int   // the in-sample query pool
	recall  float64 // recall@10 vs the exact oracle, mean over queries
	// rowsVec / rowsID: rows the scan scored per k=10 query, mean over
	// the vector pool and the id pool.
	rowsVec, rowsID float64
}

var (
	emrBenchMu       sync.Mutex
	emrBenchFixtures = map[int]*emrBenchFixture{}
)

// emrBenchPoints draws the n-point micro-cluster mixture and a pool
// of out-of-sample queries (perturbed stored points — near-duplicate
// lookup).
func emrBenchPoints(n int) ([]Vector, []Vector) {
	ds := NewMixture(MixtureConfig{
		N: n, Classes: n / 10, Dim: 8, WithinStd: 0.25, Separation: 3.0, Seed: 11,
	})
	rng := rand.New(rand.NewSource(99))
	queries := make([]Vector, 64)
	for i := range queries {
		base := ds.Points[rng.Intn(n)]
		q := make(Vector, len(base))
		for j := range q {
			q[j] = base[j] + 0.05*rng.NormFloat64()
		}
		queries[i] = q
	}
	return ds.Points, queries
}

func emrBenchFixtureFor(b *testing.B, n int) *emrBenchFixture {
	b.Helper()
	emrBenchMu.Lock()
	defer emrBenchMu.Unlock()
	if f, ok := emrBenchFixtures[n]; ok {
		return f
	}
	pts, queries := emrBenchPoints(n)
	engine, err := BuildEMR(pts, Options{Seed: 11}, emrBenchOptions)
	if err != nil {
		b.Fatal(err)
	}
	// Exact oracle over the same points; the approximate k-NN graph
	// keeps construction tractable at n=100k without touching the
	// exactness of the ranking itself.
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
	f := &emrBenchFixture{pts: pts, queries: queries, engine: engine, ids: benchQueries(n, 64), recall: recall}
	sr := engine.NewSearcher()
	for i, q := range queries {
		if _, err := sr.TopKVector(q, 10); err != nil {
			b.Fatal(err)
		}
		f.rowsVec += float64(sr.work().ScoresComputed) / float64(len(queries))
		if _, err := sr.TopK(f.ids[i], 10); err != nil {
			b.Fatal(err)
		}
		f.rowsID += float64(sr.work().ScoresComputed) / float64(len(f.ids))
	}
	emrBenchFixtures[n] = f
	return f
}

// BenchmarkEMRBuild prices BuildEMR end to end (k-means, anchor
// attachment, gram factorization) at each scale.
func BenchmarkEMRBuild(b *testing.B) {
	for _, n := range emrBenchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			pts, _ := emrBenchPoints(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := BuildEMR(pts, Options{Seed: 11}, emrBenchOptions); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEMRTopKVector prices the out-of-sample query path — the
// serving hot path — and attaches recall@10 vs the exact oracle.
func BenchmarkEMRTopKVector(b *testing.B) {
	for _, n := range emrBenchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f := emrBenchFixtureFor(b, n)
			sr := f.engine.NewSearcher()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sr.TopKVector(f.queries[i%len(f.queries)], 10); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(f.recall, "recall@10")
			b.ReportMetric(f.rowsVec, "rows/query")
		})
	}
}

// BenchmarkEMRTopK prices the in-sample path (seed item by id)
// through the pooled engine-level entry point.
func BenchmarkEMRTopK(b *testing.B) {
	for _, n := range emrBenchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f := emrBenchFixtureFor(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.engine.TopK(f.ids[i%len(f.ids)], 10); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(f.recall, "recall@10")
			b.ReportMetric(f.rowsID, "rows/query")
		})
	}
}
