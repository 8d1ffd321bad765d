package mogul

// One benchmark per table/figure of the paper's evaluation
// (Section 5). The mogul-bench command runs the same experiments at
// larger scales with full report tables; these testing.B benches keep
// every experiment reproducible straight from `go test -bench`.
//
// Where a figure reports quality rather than time (Figures 2, 3, the
// Figure 6 factor sizes, Table 2's phase split), the benchmark attaches
// the quantity via b.ReportMetric, so the -bench output contains the
// figure's numbers alongside ns/op.

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mogul/internal/baseline"
	"mogul/internal/core"
	"mogul/internal/dataset"
	"mogul/internal/eval"
	"mogul/internal/knn"
	"mogul/internal/vec"
)

// benchSizes are deliberately small: the benches demonstrate shape
// (who wins, how costs scale), while cmd/mogul-bench handles the
// paper-scale runs.
var benchDatasets = []struct {
	name string
	gen  func() *vec.Dataset
}{
	{"COIL", func() *vec.Dataset {
		return dataset.COILSim(dataset.COILConfig{Objects: 20, Poses: 72, Dim: 32, Seed: 1})
	}},
	{"PubFig", func() *vec.Dataset { return dataset.PubFigSim(2500, 2) }},
	{"NUS", func() *vec.Dataset { return dataset.NUSWideSim(3500, 3) }},
	{"INRIA", func() *vec.Dataset { return dataset.INRIASim(5000, 4) }},
}

type benchFixture struct {
	ds    *vec.Dataset
	graph *knn.Graph
	index *core.Index
	exact *core.Index
}

var (
	fixturesMu sync.Mutex
	fixtures   = map[string]*benchFixture{}
)

func fixture(b *testing.B, name string) *benchFixture {
	b.Helper()
	fixturesMu.Lock()
	defer fixturesMu.Unlock()
	if f, ok := fixtures[name]; ok {
		return f
	}
	var gen func() *vec.Dataset
	for _, d := range benchDatasets {
		if d.name == name {
			gen = d.gen
		}
	}
	if gen == nil {
		b.Fatalf("unknown bench dataset %q", name)
	}
	ds := gen()
	g, err := knn.BuildGraph(ds.Points, knn.GraphConfig{K: 5})
	if err != nil {
		b.Fatal(err)
	}
	ix, err := core.NewIndex(g, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	exact, err := core.NewIndex(g, core.Options{Exact: true})
	if err != nil {
		b.Fatal(err)
	}
	f := &benchFixture{ds: ds, graph: g, index: ix, exact: exact}
	fixtures[name] = f
	return f
}

func benchQueries(n, count int) []int {
	out := make([]int, count)
	for i := range out {
		out[i] = (i*2654435761 + 17) % n
	}
	return out
}

// BenchmarkFig1SearchTime reproduces Figure 1: per-query top-k search
// time of Mogul(k) and every baseline on each dataset. The Inverse
// baseline runs only on COIL (O(n^3) per query, as in the paper).
func BenchmarkFig1SearchTime(b *testing.B) {
	for _, d := range benchDatasets {
		f := fixture(b, d.name)
		queries := benchQueries(f.graph.Len(), 64)

		for _, k := range []int{5, 10, 15, 20} {
			b.Run(fmt.Sprintf("%s/Mogul-k%d", d.name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := f.index.TopK(queries[i%len(queries)], k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(d.name+"/EMR", func(b *testing.B) {
			emr, err := baseline.NewEMR(f.ds.Points, core.DefaultAlpha, baseline.EMRConfig{NumAnchors: 10, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := emr.TopK(queries[i%len(queries)], 5); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(d.name+"/FMR", func(b *testing.B) {
			fmr, err := baseline.NewFMR(f.graph, core.DefaultAlpha, baseline.FMRConfig{
				NumBlocks: f.graph.Len() / 250, Rank: 250, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fmr.TopK(queries[i%len(queries)], 5); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(d.name+"/Iterative", func(b *testing.B) {
			it, err := baseline.NewIterative(f.graph, core.DefaultAlpha)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := it.TopK(queries[i%len(queries)], 5); err != nil {
					b.Fatal(err)
				}
			}
		})
		if d.name == "COIL" {
			b.Run(d.name+"/Inverse", func(b *testing.B) {
				inv, err := baseline.NewInverse(f.graph, core.DefaultAlpha)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					inv.ResetCache() // the paper's per-query cost includes the O(n^3) solve
					if _, err := inv.TopK(queries[i%len(queries)], 5); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig234AnchorSweep reproduces Figures 2-4: EMR accuracy and
// search time as the anchor count d grows, against the flat Mogul and
// MogulE references. P@5 (Figure 2) and retrieval precision (Figure 3)
// are attached as custom metrics; ns/op is Figure 4.
func BenchmarkFig234AnchorSweep(b *testing.B) {
	f := fixture(b, "COIL")
	const k = 5
	queries := benchQueries(f.graph.Len(), 32)

	ref := make(map[int][]int, len(queries))
	for _, q := range queries {
		scores, err := f.exact.AllScores(q)
		if err != nil {
			b.Fatal(err)
		}
		ref[q] = eval.TopKFromScores(scores, k, nil)
	}

	report := func(b *testing.B, topk func(q int) []core.Result) {
		var patk, prec float64
		for _, q := range queries {
			ids := eval.TopKIDs(topk(q))
			patk += eval.PAtK(ids, ref[q])
			prec += eval.RetrievalPrecision(ids, f.ds.Labels, f.ds.Labels[q], q)
		}
		b.ReportMetric(patk/float64(len(queries)), "P@5")
		b.ReportMetric(prec/float64(len(queries)), "precision")
	}

	b.Run("Mogul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := f.index.TopK(queries[i%len(queries)], k); err != nil {
				b.Fatal(err)
			}
		}
		report(b, func(q int) []core.Result {
			res, err := f.index.TopK(q, k)
			if err != nil {
				b.Fatal(err)
			}
			return res
		})
	})
	b.Run("MogulE", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := f.exact.TopK(queries[i%len(queries)], k); err != nil {
				b.Fatal(err)
			}
		}
		report(b, func(q int) []core.Result {
			res, err := f.exact.TopK(q, k)
			if err != nil {
				b.Fatal(err)
			}
			return res
		})
	})
	for _, d := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("EMR-d%d", d), func(b *testing.B) {
			emr, err := baseline.NewEMR(f.ds.Points, core.DefaultAlpha, baseline.EMRConfig{NumAnchors: d, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := emr.TopK(queries[i%len(queries)], k); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			report(b, func(q int) []core.Result {
				res, err := emr.TopK(q, k)
				if err != nil {
					b.Fatal(err)
				}
				return res
			})
		})
	}
}

// BenchmarkFig5Pruning reproduces Figure 5: full Mogul versus the
// "W/O estimation" and plain "Incomplete Cholesky" ablations.
func BenchmarkFig5Pruning(b *testing.B) {
	variants := []struct {
		label string
		opts  core.SearchOptions
	}{
		{"Mogul", core.SearchOptions{K: 5}},
		{"WithoutEstimation", core.SearchOptions{K: 5, DisablePruning: true}},
		{"IncompleteCholesky", core.SearchOptions{K: 5, FullSubstitution: true}},
	}
	for _, d := range benchDatasets {
		f := fixture(b, d.name)
		queries := benchQueries(f.graph.Len(), 64)
		for _, v := range variants {
			b.Run(d.name+"/"+v.label, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := f.index.Search(queries[i%len(queries)], v.opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig6FactorStructure reproduces Figure 6 quantitatively (the
// spy plots themselves come from mogul-bench -exp fig6). The incomplete
// factor's nnz is ordering-invariant (the pattern is W's), so the
// ordering's effect shows in the complete factor's fill-in; both are
// reported as custom metrics. The timed operation is the index build.
func BenchmarkFig6FactorStructure(b *testing.B) {
	variants := []struct {
		label string
		opts  core.Options
	}{
		{"Incomplete-MogulOrder", core.Options{}},
		{"Complete-MogulOrder", core.Options{Exact: true}},
		{"Complete-RandomOrder", core.Options{Exact: true, Ordering: core.OrderingRandom, Seed: 7}},
	}
	for _, d := range benchDatasets {
		f := fixture(b, d.name)
		for _, v := range variants {
			opts := v.opts
			b.Run(d.name+"/"+v.label, func(b *testing.B) {
				var nnz int
				for i := 0; i < b.N; i++ {
					ix, err := core.NewIndex(f.graph, opts)
					if err != nil {
						b.Fatal(err)
					}
					nnz = ix.Factor().NNZ()
				}
				b.ReportMetric(float64(nnz), "nnz(L)")
			})
		}
	}
}

// BenchmarkFig7OutOfSample reproduces Figure 7: out-of-sample query
// time, Mogul versus EMR.
func BenchmarkFig7OutOfSample(b *testing.B) {
	for _, d := range benchDatasets {
		full := fixture(b, d.name).ds
		in, queries, _, err := dataset.HoldOut(full, 0.02, 5)
		if err != nil {
			b.Fatal(err)
		}
		g, err := knn.BuildGraph(in.Points, knn.GraphConfig{K: 5})
		if err != nil {
			b.Fatal(err)
		}
		ix, err := core.NewIndex(g, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		emr, err := baseline.NewEMR(in.Points, core.DefaultAlpha, baseline.EMRConfig{NumAnchors: 10, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(d.name+"/Mogul", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := ix.SearchOutOfSample(queries[i%len(queries)], core.OOSOptions{K: 5}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(d.name+"/EMR", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := emr.TopKOutOfSample(queries[i%len(queries)], 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2Breakdown reproduces Table 2: the nearest-neighbour
// versus top-k phase split of Mogul's out-of-sample search, attached
// as custom metrics in milliseconds.
func BenchmarkTable2Breakdown(b *testing.B) {
	for _, d := range benchDatasets {
		full := fixture(b, d.name).ds
		in, queries, _, err := dataset.HoldOut(full, 0.02, 5)
		if err != nil {
			b.Fatal(err)
		}
		g, err := knn.BuildGraph(in.Points, knn.GraphConfig{K: 5})
		if err != nil {
			b.Fatal(err)
		}
		ix, err := core.NewIndex(g, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(d.name, func(b *testing.B) {
			var nnMs, tkMs float64
			for i := 0; i < b.N; i++ {
				_, bd, err := ix.SearchOutOfSample(queries[i%len(queries)], core.OOSOptions{K: 5})
				if err != nil {
					b.Fatal(err)
				}
				nnMs += bd.NearestNeighbor.Seconds() * 1000
				tkMs += bd.TopK.Seconds() * 1000
			}
			b.ReportMetric(nnMs/float64(b.N), "nn-ms")
			b.ReportMetric(tkMs/float64(b.N), "topk-ms")
		})
	}
}

// BenchmarkFig8Precompute reproduces Figure 8: total precomputation
// time (clustering + permutation + factorization) under the Mogul
// ordering versus the random-order Incomplete Cholesky baseline.
func BenchmarkFig8Precompute(b *testing.B) {
	for _, d := range benchDatasets {
		f := fixture(b, d.name)
		b.Run(d.name+"/Mogul", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.NewIndex(f.graph, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(d.name+"/RandomOrderICF", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.NewIndex(f.graph, core.Options{Ordering: core.OrderingRandom, Seed: 7}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9CaseStudy reproduces the Figure 9 comparison
// quantitatively: retrieval precision of Connected (plain k-NN), Mogul
// and EMR (d=100, the paper's case-study setting) on the COIL
// stand-in, attached as a custom metric.
func BenchmarkFig9CaseStudy(b *testing.B) {
	f := fixture(b, "COIL")
	const k = 4
	queries := benchQueries(f.graph.Len(), 32)
	emr, err := baseline.NewEMR(f.ds.Points, core.DefaultAlpha, baseline.EMRConfig{NumAnchors: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}

	precision := func(topk func(q int) []int) float64 {
		var total float64
		for _, q := range queries {
			total += eval.RetrievalPrecision(topk(q), f.ds.Labels, f.ds.Labels[q], q)
		}
		return total / float64(len(queries))
	}

	b.Run("Connected", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cols, _ := f.graph.Neighbors(queries[i%len(queries)])
			_ = cols
		}
		b.ReportMetric(precision(func(q int) []int {
			cols, _ := f.graph.Neighbors(q)
			if len(cols) > k {
				cols = cols[:k]
			}
			return cols
		}), "precision")
	})
	b.Run("Mogul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := f.index.TopK(queries[i%len(queries)], k+1); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(precision(func(q int) []int {
			res, err := f.index.TopK(q, k+1)
			if err != nil {
				b.Fatal(err)
			}
			return eval.TopKIDs(res)
		}), "precision")
	})
	b.Run("EMR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := emr.TopK(queries[i%len(queries)], k+1); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(precision(func(q int) []int {
			res, err := emr.TopK(q, k+1)
			if err != nil {
				b.Fatal(err)
			}
			return eval.TopKIDs(res)
		}), "precision")
	})
}

// bench10k builds the n=10k index shared by the hot-path benchmarks
// below (lazily, once), mirroring the fixture cache used for the
// figure benches.
func hotFixture10k(b *testing.B) *Index {
	b.Helper()
	fixturesMu.Lock()
	defer fixturesMu.Unlock()
	if ix, ok := fixtures10k["ix"]; ok {
		return ix
	}
	ds := dataset.Mixture(dataset.MixtureConfig{
		N: 10100, Classes: 25, Dim: 16, WithinStd: 0.3, Separation: 2.5, Seed: 11,
	})
	ix, err := Build(ds.Points[:10000], Options{})
	if err != nil {
		b.Fatal(err)
	}
	fixtures10k["ix"] = ix
	fixtures10kPool = ds.Points[10000:]
	return ix
}

var (
	fixtures10k     = map[string]*Index{}
	fixtures10kPool []Vector
)

// BenchmarkTopK is the headline hot-path benchmark of the pooled query
// engine at n=10k: steady-state in-database searches must report, with
// -benchmem, exactly one allocation per op — the returned []Result —
// where the pre-engine path allocated O(n) scratch per query (~190 KB
// and 24 allocs at this size). The CI bench-smoke job runs it:
//
//	go test -run '^$' -bench 'BenchmarkTopK|BenchmarkInsert' -benchmem -benchtime 30x .
func BenchmarkTopK(b *testing.B) {
	ix := hotFixture10k(b)
	queries := benchQueries(10000, 64)
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ix.TopK(queries[i%len(queries)], 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("searcher", func(b *testing.B) {
		sr := ix.NewSearcher()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sr.TopK(queries[i%len(queries)], 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTopKVector is BenchmarkTopK for the out-of-sample fast
// path (coarse quantizer + surrogate selection + pruned search), which
// the engine refactor also brought down to one allocation per query.
// n=10k has 25 classes; shard is one dist_fanout shard (see
// shardFixture), where the quantizer has ~500 clusters to choose from;
// d512-f32 is the graph_vec_d512 index (see d512Fixture), where the
// attach's distance kernels are most of the call, and also reports the
// attach phase of OOSBreakdown as "attach-us/query". All report the
// index's cluster count as "clusters".
func BenchmarkTopKVector(b *testing.B) {
	b.Run("n=10k", func(b *testing.B) {
		benchTopKVector(b, hotFixture10k(b), fixtures10kPool)
	})
	b.Run("shard", func(b *testing.B) {
		ix, pool := shardFixture(b)
		benchTopKVector(b, ix, pool)
	})
	b.Run("d512-f32", func(b *testing.B) {
		ix, pool := d512Fixture(b)
		benchTopKVector(b, ix, pool)
		b.StopTimer()
		var attach time.Duration
		for _, q := range pool {
			_, bd, err := ix.TopKVectorWithInfo(q, 10)
			if err != nil {
				b.Fatal(err)
			}
			attach += bd.NearestNeighbor
		}
		b.ReportMetric(float64(attach.Microseconds())/float64(len(pool)), "attach-us/query")
	})
}

func benchTopKVector(b *testing.B, ix *Index, pool []Vector) {
	sr := ix.NewSearcher()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sr.TopKVector(pool[i%len(pool)], 10); err != nil {
			b.Fatal(err)
		}
	}
	reportClusters(b, ix)
}

// BenchmarkTopKWithVector is what a dist_fanout owner shard answers per
// id query: the pruned search plus the stored vector and the surrogate
// affinity to it, whose attach measures every cluster mean.
func BenchmarkTopKWithVector(b *testing.B) {
	b.Run("shard", func(b *testing.B) {
		ix, _ := shardFixture(b)
		queries := benchQueries(ix.Len(), 64)
		sr := ix.NewSearcher()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, _, err := sr.TopKWithVector(queries[i%len(queries)], 10); err != nil {
				b.Fatal(err)
			}
		}
		reportClusters(b, ix)
	})
}

// shardFixture is one shard of the dist_fanout workload (benchmark/,
// n = 20000 over four shards), built with default options from
// shardShape. Built lazily, once.
func shardFixture(b *testing.B) (*Index, []Vector) {
	b.Helper()
	fixturesMu.Lock()
	defer fixturesMu.Unlock()
	if shardIx == nil {
		pts, pool := shardShape()
		ix, err := Build(pts, Options{})
		if err != nil {
			b.Fatal(err)
		}
		shardIx, shardPool = ix, pool
	}
	return shardIx, shardPool
}

var (
	shardIx   *Index
	shardPool []Vector
)

// shardShape is a dist_fanout shard's corpus — a Mixture of 5000 points
// in d = 8 with 500 classes of ~10 — and 1000 held-out points, each a
// stored point moved by N(0, 0.05²) per coordinate as the workload's
// queries are. (The mixture is ordered by class, so a held-out tail
// would be classes the index has never seen.)
func shardShape() (pts, pool []Vector) {
	pts = dataset.Mixture(dataset.MixtureConfig{
		N: 5000, Classes: 500, Dim: 8, WithinStd: 0.25, Separation: 3.0, Seed: 1,
	}).Points
	rng := rand.New(rand.NewSource(2))
	pool = make([]Vector, 1000)
	for i := range pool {
		q := append(Vector(nil), pts[rng.Intn(len(pts))]...)
		for j := range q {
			q[j] += 0.05 * rng.NormFloat64()
		}
		pool[i] = q
	}
	return pts, pool
}

// d512Fixture is the graph_vec_d512 workload's index (benchmark/): 6000
// unit-norm points in d = 512 on 16-dimensional class manifolds, 50 per
// class, built with the approximate graph in F32, saved aligned and
// mapped back in. The 500 queries are stored points moved by N(0, 0.01²)
// per coordinate and re-normalised, as the workload's are. Built lazily,
// once; the mapping stays open for the process.
func d512Fixture(b *testing.B) (*Index, []Vector) {
	b.Helper()
	fixturesMu.Lock()
	defer fixturesMu.Unlock()
	if d512Ix != nil {
		return d512Ix, d512Pool
	}
	pts := dataset.Mixture(dataset.MixtureConfig{
		N: 6000, Classes: 120, Dim: 512, IntrinsicDim: 16, WithinStd: 0.25, Separation: 3.0, Seed: 1,
	}).Points
	unit := func(v Vector) {
		inv := 1 / math.Sqrt(vec.Dot(v, v))
		for i := range v {
			v[i] *= inv
		}
	}
	for _, p := range pts {
		unit(p)
	}
	rng := rand.New(rand.NewSource(2))
	pool := make([]Vector, 500)
	for i := range pool {
		q := append(Vector(nil), pts[rng.Intn(len(pts))]...)
		for j := range q {
			q[j] += 0.01 * rng.NormFloat64()
		}
		unit(q)
		pool[i] = q
	}
	built, err := Build(pts, Options{ApproximateGraph: true, Precision: F32})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "d512.mogul")
	if err := built.SaveFileAligned(path, 4096); err != nil {
		b.Fatal(err)
	}
	r, _, err := LoadFileMapped(path)
	if err != nil {
		b.Fatal(err)
	}
	d512Ix, d512Pool = r.(*Index), pool
	return d512Ix, d512Pool
}

var (
	d512Ix   *Index
	d512Pool []Vector
)

// reportClusters records the index's cluster count, the quantity the
// out-of-sample attach's cost scales with (after the timed loop:
// ResetTimer drops reported metrics).
func reportClusters(b *testing.B, ix *Index) {
	b.ReportMetric(float64(ix.Stats().NumClusters), "clusters")
}

// BenchmarkIndexBuild tracks end-to-end public-API build cost (not a
// paper figure; a regression guard for the library itself).
func BenchmarkIndexBuild(b *testing.B) {
	ds := dataset.Mixture(dataset.MixtureConfig{N: 2000, Classes: 20, Dim: 16, Seed: 9, Separation: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(ds.Points, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsert measures one online insert into the delta layer:
// a nearest-cluster probe plus surrogate weighting — microseconds,
// versus the milliseconds-to-seconds a full rebuild would cost (see
// BenchmarkIndexBuild for the comparison point at n=2000). shard inserts
// into a fresh dist_fanout shard (shardFixture's recipe, not its cached
// index, which the other benches query unmutated).
func BenchmarkInsert(b *testing.B) {
	b.Run("n=2k", func(b *testing.B) {
		ds := dataset.Mixture(dataset.MixtureConfig{
			N: 4000, Classes: 10, Dim: 16, WithinStd: 0.3, Separation: 2.5, Seed: 9,
		})
		ix, err := Build(ds.Points[:2000], Options{})
		if err != nil {
			b.Fatal(err)
		}
		benchInsert(b, ix, ds.Points[2000:])
	})
	b.Run("shard", func(b *testing.B) {
		pts, pool := shardShape()
		ix, err := Build(pts, Options{})
		if err != nil {
			b.Fatal(err)
		}
		benchInsert(b, ix, pool)
	})
}

func benchInsert(b *testing.B, ix *Index, pool []Vector) {
	// Warm: the first attach builds the lazy out-of-sample tables (one
	// mean and member list per cluster), which would otherwise show up
	// in allocs/op at CI's short -benchtime.
	if _, err := ix.Insert(pool[len(pool)-1]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Insert(pool[i%len(pool)]); err != nil {
			b.Fatal(err)
		}
	}
	reportClusters(b, ix)
}

// BenchmarkTopKWithDelta measures the search-time cost of an
// uncompacted delta at 0/1/5/10% of the base size — the quantity that
// sets a sensible AutoCompactFraction (README "Dynamic updates").
func BenchmarkTopKWithDelta(b *testing.B) {
	ds := dataset.Mixture(dataset.MixtureConfig{
		N: 2200, Classes: 10, Dim: 16, WithinStd: 0.3, Separation: 2.5, Seed: 10,
	})
	const n = 2000
	for _, pct := range []int{0, 1, 5, 10} {
		b.Run(fmt.Sprintf("delta=%d%%", pct), func(b *testing.B) {
			ix, err := Build(ds.Points[:n], Options{})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n*pct/100; i++ {
				if _, err := ix.Insert(ds.Points[n+i]); err != nil {
					b.Fatal(err)
				}
			}
			queries := benchQueries(n, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ix.TopK(queries[i%len(queries)], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTopKSharded measures the fan-out search across shard counts
// at n=10k: per-query latency of a held ShardedSearcher (S pinned
// per-shard workspaces, S+1 allocs/op). The CI bench-smoke job's
// BenchmarkTopK pattern selects it alongside the single-index one.
func BenchmarkTopKSharded(b *testing.B) {
	ds := dataset.Mixture(dataset.MixtureConfig{
		N: 10000, Classes: 25, Dim: 16, WithinStd: 0.3, Separation: 2.5, Seed: 11,
	})
	queries := benchQueries(10000, 64)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("S=%d", shards), func(b *testing.B) {
			six, err := BuildSharded(ds.Points, Options{}, ShardOptions{Shards: shards, Partitioner: PartitionKMeans})
			if err != nil {
				b.Fatal(err)
			}
			ss := six.NewSearcher()
			// Warm: size every shard's scratch and build the lazy
			// out-of-sample tables, so allocs/op reports steady state
			// even at CI's short -benchtime.
			if _, err := ss.TopK(queries[0], 10); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ss.TopK(queries[i%len(queries)], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
