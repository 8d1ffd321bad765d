package mogul

// Ablation benchmarks for the design choices DESIGN.md calls out:
// the Manifold Ranking damping parameter alpha, the k of the k-NN
// graph, the graph symmetrization mode, and the ordering strategy.
// Each reports retrieval quality as custom metrics next to the usual
// ns/op, so a single -bench run shows the quality/speed trade-off of
// every knob.

import (
	"fmt"
	"testing"

	"mogul/internal/core"
	"mogul/internal/dataset"
	"mogul/internal/eval"
	"mogul/internal/knn"
	"mogul/internal/vec"
)

// ablationDataset is a moderate labelled workload shared by the
// ablations; small enough that every variant builds in milliseconds.
func ablationDataset() *dataset.MixtureConfig {
	return &dataset.MixtureConfig{
		N: 2000, Classes: 20, Dim: 16, WithinStd: 0.25, Separation: 1.8, Seed: 17,
	}
}

// BenchmarkAblationAlpha sweeps the damping parameter. The paper fixes
// alpha = 0.99 following [25, 26]; the sweep shows why: small alpha
// barely diffuses (high self-score, low recall of the manifold), while
// alpha close to 1 risks slower bound convergence.
func BenchmarkAblationAlpha(b *testing.B) {
	ds := dataset.Mixture(*ablationDataset())
	g, err := knn.BuildGraph(ds.Points, knn.GraphConfig{K: 5})
	if err != nil {
		b.Fatal(err)
	}
	queries := benchQueries(g.Len(), 24)
	for _, alpha := range []float64{0.5, 0.9, 0.99, 0.999} {
		b.Run(fmt.Sprintf("alpha=%g", alpha), func(b *testing.B) {
			ix, err := core.NewIndex(g, core.Options{Alpha: alpha})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ix.TopK(queries[i%len(queries)], 10); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			var prec float64
			for _, q := range queries {
				res, err := ix.TopK(q, 10)
				if err != nil {
					b.Fatal(err)
				}
				prec += eval.RetrievalPrecision(eval.TopKIDs(res), ds.Labels, ds.Labels[q], q)
			}
			b.ReportMetric(prec/float64(len(queries)), "precision")
		})
	}
}

// BenchmarkAblationGraphK sweeps the k-NN graph degree (the paper
// notes k is usually 5-20 and evaluates with 5). Larger k densifies
// the graph: better connectivity, larger factor, slower search.
func BenchmarkAblationGraphK(b *testing.B) {
	ds := dataset.Mixture(*ablationDataset())
	for _, k := range []int{3, 5, 10, 20} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			g, err := knn.BuildGraph(ds.Points, knn.GraphConfig{K: k})
			if err != nil {
				b.Fatal(err)
			}
			ix, err := core.NewIndex(g, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			queries := benchQueries(g.Len(), 24)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ix.TopK(queries[i%len(queries)], 10); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			var prec float64
			for _, q := range queries {
				res, err := ix.TopK(q, 10)
				if err != nil {
					b.Fatal(err)
				}
				prec += eval.RetrievalPrecision(eval.TopKIDs(res), ds.Labels, ds.Labels[q], q)
			}
			b.ReportMetric(prec/float64(len(queries)), "precision")
			b.ReportMetric(float64(ix.Factor().NNZ()), "nnz(L)")
		})
	}
}

// BenchmarkAblationOrdering compares the four node orderings on build
// time, with approximation quality (P@10 against the exact ranking)
// attached. Mogul's Algorithm 1 is the only ordering that also enables
// pruning; RCM/random/identity factor fine but cannot skip clusters.
func BenchmarkAblationOrdering(b *testing.B) {
	ds := dataset.Mixture(*ablationDataset())
	g, err := knn.BuildGraph(ds.Points, knn.GraphConfig{K: 5})
	if err != nil {
		b.Fatal(err)
	}
	exact, err := core.NewIndex(g, core.Options{Exact: true})
	if err != nil {
		b.Fatal(err)
	}
	queries := benchQueries(g.Len(), 16)
	ref := map[int][]int{}
	for _, q := range queries {
		scores, err := exact.AllScores(q)
		if err != nil {
			b.Fatal(err)
		}
		ref[q] = eval.TopKFromScores(scores, 10, nil)
	}
	for _, ord := range []struct {
		label string
		o     core.Ordering
	}{
		{"Mogul", core.OrderingMogul},
		{"Random", core.OrderingRandom},
		{"Identity", core.OrderingIdentity},
		{"RCM", core.OrderingRCM},
	} {
		b.Run(ord.label, func(b *testing.B) {
			var ix *core.Index
			for i := 0; i < b.N; i++ {
				var err error
				ix, err = core.NewIndex(g, core.Options{Ordering: ord.o, Seed: 7})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			var patk float64
			for _, q := range queries {
				res, err := ix.TopK(q, 10)
				if err != nil {
					b.Fatal(err)
				}
				patk += eval.PAtK(eval.TopKIDs(res), ref[q])
			}
			b.ReportMetric(patk/float64(len(queries)), "P@10")
		})
	}
}

// BenchmarkAblationSymmetrization compares union versus mutual k-NN
// symmetrization (Section 3 defines the graph; implementations differ
// on this detail and it changes connectivity).
func BenchmarkAblationSymmetrization(b *testing.B) {
	ds := dataset.Mixture(*ablationDataset())
	for _, mutual := range []bool{false, true} {
		name := "union"
		if mutual {
			name = "mutual"
		}
		b.Run(name, func(b *testing.B) {
			g, err := knn.BuildGraph(ds.Points, knn.GraphConfig{K: 5, Mutual: mutual})
			if err != nil {
				b.Fatal(err)
			}
			ix, err := core.NewIndex(g, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			queries := benchQueries(g.Len(), 24)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ix.TopK(queries[i%len(queries)], 10); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			var prec float64
			for _, q := range queries {
				res, err := ix.TopK(q, 10)
				if err != nil {
					b.Fatal(err)
				}
				prec += eval.RetrievalPrecision(eval.TopKIDs(res), ds.Labels, ds.Labels[q], q)
			}
			b.ReportMetric(prec/float64(len(queries)), "precision")
			b.ReportMetric(float64(g.NumEdges()), "edges")
		})
	}
}

// BenchmarkThroughputParallel measures concurrent query throughput
// through the public API (the index is read-only during search, so
// QPS should scale with cores).
func BenchmarkThroughputParallel(b *testing.B) {
	ds := dataset.Mixture(*ablationDataset())
	idx, err := Build(ds.Points, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		q := 0
		for pb.Next() {
			if _, err := idx.TopK(q%idx.Len(), 10); err != nil {
				b.Error(err)
				return
			}
			q += 7919 // large prime stride spreads queries
		}
	})
}

// BenchmarkKNNBackends compares the two exact k-NN searches on one
// query workload: the brute-force scan and the k-d tree every graph
// build and the spectral attach use. recall@10 against the scan is 1 for
// both by construction; it is attached as a check.
func BenchmarkKNNBackends(b *testing.B) {
	ds := dataset.INRIASim(4000, 5)
	bf := knn.NewBruteForce(ds.Points)
	rows := vec.AliasRows(ds.Points, len(ds.Points[0]))
	tree := knn.NewTree(&rows)
	var sc knn.Scratch
	queries := benchQueries(len(ds.Points), 64)
	exact := map[int]map[int]bool{}
	for _, q := range queries {
		set := map[int]bool{}
		for _, nb := range bf.Search(ds.Points[q], 10) {
			set[nb.ID] = true
		}
		exact[q] = set
	}
	backends := []struct {
		name   string
		search func(q vec.Vector) []knn.Neighbor
	}{
		{"BruteForce", func(q vec.Vector) []knn.Neighbor { return bf.SearchInto(&sc, q, 10) }},
		{"Tree", func(q vec.Vector) []knn.Neighbor {
			sc.Reset(10)
			tree.Offer(&sc, &rows, q, nil)
			return sc.Sorted()
		}},
	}
	for _, be := range backends {
		b.Run(be.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				be.search(ds.Points[queries[i%len(queries)]])
			}
			b.StopTimer()
			hits, total := 0, 0
			for _, q := range queries {
				for _, nb := range be.search(ds.Points[q]) {
					total++
					if exact[q][nb.ID] {
						hits++
					}
				}
			}
			b.ReportMetric(float64(hits)/float64(total), "recall@10")
		})
	}
}
