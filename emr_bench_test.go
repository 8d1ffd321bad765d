package mogul

// EMR frontier benchmarks (CI bench-smoke; docs/EMR.md has the table
// they fill):
//
//	go test -run '^$' -bench 'BenchmarkEMR' -benchmem -benchtime 5x -timeout 40m .
//
// Build time and per-query latency at n in {10k, 100k}, with recall@10
// against the exact Manifold Ranking oracle, the rows the scan scored
// and the transposed cell-table entries the bound pass read per query
// attached via b.ReportMetric. The acceptance bars for the anchor-graph
// engine: recall@10 >= 0.9 vs exact, and a query that scores a few
// percent of the rows — rows/query is the number to watch, because the
// query is no longer a pass over every H column. BenchmarkEMRTopKVector
// also has an emr_vec row: the benchmark workload of that name (n =
// 20000, p = 1024, s = 24, the mixture at corpus seed 1) in process,
// without the oracle (the workload measures its recall).
//
// What a query costs now (docs/EMR.md has the measured split): attaching
// the vector to its s nearest of p anchors, the s-row combine z = M rhs
// (p*s multiply-adds — the largest term at emr_vec), a bound pass of
// O(p) plus pushed/query multiply-adds (the transposed entries of the
// few dozen anchors where the remainder is large; a tenth of the table
// or less) plus one exact ~50-anchor gather for each cell the heap pops,
// and s multiply-adds per row of the cells the bound could not rule out.
// Every term but the last is a function of p and of the query's
// neighbourhood, and the last is a small share of n, so latency grows
// with n far slower than the 7x an exhaustive pass over the H columns
// shows from 10k to 100k at this p.
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
	queries []Vector
	engine  *EMRIndex
	ids     []int   // the in-sample query pool
	recall  float64 // recall@10 vs the exact oracle, mean over queries
	// rowsVec / rowsID: rows the scan scored per k=10 query, mean over
	// the vector pool and the id pool; pushedVec / pushedID the
	// transposed entries the bound pass read.
	rowsVec, rowsID     float64
	pushedVec, pushedID float64
}

var (
	emrBenchMu       sync.Mutex
	emrBenchFixtures = map[string]*emrBenchFixture{}
)

// emrBenchPoints draws the n-point micro-cluster mixture and a pool of
// 64 out-of-sample queries (perturbed stored points — near-duplicate
// lookup).
func emrBenchPoints(n int) ([]Vector, []Vector) { return emrMixture(n, 64, 11) }

// emrMixture is emrBenchPoints at any query count and corpus seed.
func emrMixture(n, queries int, seed int64) ([]Vector, []Vector) {
	ds := NewMixture(MixtureConfig{
		N: n, Classes: n / 10, Dim: 8, WithinStd: 0.25, Separation: 3.0, Seed: seed,
	})
	rng := rand.New(rand.NewSource(99))
	pool := make([]Vector, queries)
	for i := range pool {
		base := ds.Points[rng.Intn(n)]
		q := make(Vector, len(base))
		for j := range q {
			q[j] = base[j] + 0.05*rng.NormFloat64()
		}
		pool[i] = q
	}
	return ds.Points, pool
}

// emrBenchFixtureFor builds (once) the frontier fixture at n, with the
// exact oracle's recall.
func emrBenchFixtureFor(b *testing.B, n int) *emrBenchFixture {
	return emrFixture(b, fmt.Sprintf("n=%d", n), func() *emrBenchFixture {
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
		f := &emrBenchFixture{queries: queries, engine: engine, ids: benchQueries(n, 64)}
		for _, q := range queries {
			ref, err := exact.TopKVector(q, 10)
			if err != nil {
				b.Fatal(err)
			}
			got, err := engine.TopKVector(q, 10)
			if err != nil {
				b.Fatal(err)
			}
			f.recall += eval.PAtK(eval.TopKIDs(got), eval.TopKIDs(ref))
		}
		f.recall /= float64(len(queries))
		return f
	})
}

// emrVecFixture is the emr_vec workload's engine (Options zero, as the
// workload builds it) with 256 perturbed queries and no oracle.
func emrVecFixture(b *testing.B) *emrBenchFixture {
	return emrFixture(b, "emr_vec", func() *emrBenchFixture {
		pts, queries := emrMixture(20_000, 256, 1)
		engine, err := BuildEMR(pts, Options{}, EMROptions{NumAnchors: 1024, NumNearestAnchors: 24})
		if err != nil {
			b.Fatal(err)
		}
		return &emrBenchFixture{queries: queries, engine: engine}
	})
}

// emrFixture returns the cached fixture under name, building it with
// build and measuring its per-query work counters on first use.
func emrFixture(b *testing.B, name string, build func() *emrBenchFixture) *emrBenchFixture {
	b.Helper()
	emrBenchMu.Lock()
	defer emrBenchMu.Unlock()
	if f, ok := emrBenchFixtures[name]; ok {
		return f
	}
	f := build()
	sr := f.engine.NewSearcher()
	for _, q := range f.queries {
		if _, err := sr.TopKVector(q, 10); err != nil {
			b.Fatal(err)
		}
		f.rowsVec += float64(sr.work().ScoresComputed) / float64(len(f.queries))
		f.pushedVec += float64(sr.pushed) / float64(len(f.queries))
	}
	for _, id := range f.ids {
		if _, err := sr.TopK(id, 10); err != nil {
			b.Fatal(err)
		}
		f.rowsID += float64(sr.work().ScoresComputed) / float64(len(f.ids))
		f.pushedID += float64(sr.pushed) / float64(len(f.ids))
	}
	emrBenchFixtures[name] = f
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
	run := func(b *testing.B, f *emrBenchFixture) {
		sr := f.engine.NewSearcher()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sr.TopKVector(f.queries[i%len(f.queries)], 10); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(f.rowsVec, "rows/query")
		b.ReportMetric(f.pushedVec, "pushed/query")
	}
	for _, n := range emrBenchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f := emrBenchFixtureFor(b, n)
			run(b, f)
			b.ReportMetric(f.recall, "recall@10")
		})
	}
	b.Run("emr_vec", func(b *testing.B) { run(b, emrVecFixture(b)) })
}

// BenchmarkEMRAttach prices the out-of-sample attach alone — the query's
// s nearest anchors through the anchor tree and their weights — on the
// emr_vec shape (1024 anchors, s = 24, d = 8).
func BenchmarkEMRAttach(b *testing.B) {
	f := emrVecFixture(b)
	sr := f.engine.NewSearcher()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sr.affinity(f.queries[i%len(f.queries)]); err != nil {
			b.Fatal(err)
		}
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
			b.ReportMetric(f.pushedID, "pushed/query")
		})
	}
}
