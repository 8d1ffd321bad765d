package mogul

// Build-pipeline benchmarks (PR: parallel precompute). Run with
// -cpu 1,4 to see the core scaling the parallel build stages buy:
//
//	go test -bench 'BenchmarkBuild(EMR|Sharded)?$' -benchtime 1x -cpu 1,4
//
// The acceptance criteria pin BenchmarkBuild at n=10k (exact engine)
// and BenchmarkBuildEMR at n=100k/p=2560 to >= 2x speedup over the
// serial build; CI's bench-smoke job runs the sweep. mogul-bench
// -exp build reports the per-stage wall-time breakdown behind the same
// numbers.

import (
	"fmt"
	"testing"
)

// buildBenchPoints draws the micro-cluster mixture every build
// benchmark shares (same family as emrBenchPoints, kept separate so
// the graph-build sizes can sweep independently).
func buildBenchPoints(n int) []Vector {
	ds := NewMixture(MixtureConfig{
		N: n, Classes: n / 10, Dim: 8, WithinStd: 0.25, Separation: 3.0, Seed: 11,
	})
	return ds.Points
}

// BenchmarkBuild measures the graph-engine build (k-NN graph, Louvain
// ordering, LDL^T, bound tables) end to end: with the complete factor
// (Exact) at n = 2000 and 10000, and as the mixed_rw workload builds —
// its corpus (n = 20000, d = 8, generator seed 1) under default
// options, so the IC(0) factor.
func BenchmarkBuild(b *testing.B) {
	run := func(name string, pts []Vector, opts Options) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(pts, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{2000, 10_000} {
		run(fmt.Sprintf("n=%d", n), buildBenchPoints(n), Options{Exact: true, Seed: 11})
	}
	run("mixed_rw", NewMixture(MixtureConfig{
		N: 20_000, Classes: 2000, Dim: 8, WithinStd: 0.25, Separation: 3.0, Seed: 1,
	}).Points, Options{})
}

// BenchmarkBuildEMR measures the anchor-graph engine build (k-means
// anchors, attachment, gram factorization) at the frontier point the
// EMR acceptance criteria are pinned to (p=2560, s=24).
func BenchmarkBuildEMR(b *testing.B) {
	for _, n := range emrBenchSizes {
		pts, _ := emrBenchPoints(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildEMR(pts, Options{Seed: 11}, emrBenchOptions); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildSharded measures the fan-out build: per-shard builds
// already run concurrently, so this tracks how intra-shard parallelism
// composes with the shard-level pool rather than fighting it.
func BenchmarkBuildSharded(b *testing.B) {
	const n = 10_000
	pts := buildBenchPoints(n)
	b.Run(fmt.Sprintf("n=%d/shards=4", n), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := BuildSharded(pts, Options{Exact: true, Seed: 11}, ShardOptions{Shards: 4}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
