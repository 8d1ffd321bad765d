package main

import (
	"fmt"
	"math/rand"
	"time"

	"mogul"
	"mogul/internal/core"
	"mogul/internal/eval"
)

// expSplit is step one of ROADMAP item 1 made reproducible: the
// benchmark's graph_id shape — INRIASim(14000, seed 1), the 64 uniform
// ids of its query pool — built with the exact k-NN graph and each of
// the incomplete IC(0) and the complete factor, with recall@10 of each
// against the complete one (the benchmark's oracle), the border
// cluster's size and the factor's non-zeros per row. Every graph is
// exact, so the workload's lost recall is all factor error; the shape is
// fixed, so -scale, -seed and -queries do not apply.
func expSplit(*lab) {
	const n, k = 14000, 10
	pts := mogul.NewINRIASim(n, 1).Points
	rng := rand.New(rand.NewSource(0x9001)) // benchmark/spec.go's poolSeed
	ids := make([]int, 64)
	for i := range ids {
		ids[i] = rng.Intn(n)
	}
	arms := []struct {
		label string
		opts  mogul.Options
	}{
		{"exact + complete", mogul.Options{Exact: true}},
		{"exact + IC(0)", mogul.Options{}},
	}
	var ref [][]int
	rows := [][]string{{"graph + factor", "recall@10 vs exact + complete", "border", "factor nnz", "nnz/row", "build"}}
	for _, arm := range arms {
		t0 := time.Now()
		ix, err := mogul.Build(pts, arm.opts)
		if err != nil {
			fatal(err)
		}
		build := time.Since(t0)
		var recall float64
		top := make([][]int, len(ids))
		for i, q := range ids {
			res, err := ix.TopK(q, k)
			if err != nil {
				fatal(err)
			}
			top[i] = eval.TopKIDs(res)
			if ref != nil {
				recall += eval.PAtK(top[i], ref[i])
			}
		}
		if ref == nil {
			ref, recall = top, float64(len(ids))
		}
		st := ix.Stats()
		rows = append(rows, []string{
			arm.label,
			fmt.Sprintf("%.3f", recall/float64(len(ids))),
			fmt.Sprint(st.BorderSize),
			fmt.Sprint(st.FactorNNZ),
			fmt.Sprintf("%.1f", float64(st.FactorNNZ)/n),
			build.Round(time.Millisecond).String(),
		})
	}
	fmt.Printf("Where graph_id loses recall: INRIASim n=%d, %d uniform ids, top-%d\n", n, len(ids), k)
	emitTable(rows)
}

// expMogulCG reports the CG extension: exact scores from the
// incomplete factor used as an IC(0) preconditioner, versus MogulE's
// complete factorization. Columns: per-query time, CG iterations, and
// the two precompute times.
func expMogulCG(l *lab) {
	rows := [][]string{{"dataset", "MogulCG search [s]", "CG iters", "MogulE search [s]", "incomplete precompute [s]", "complete precompute [s]"}}
	for _, name := range datasetNames {
		g := l.graph(name)
		ix := l.index(name)
		exact := l.exactIndex(name)
		queries := l.queryNodes(name)

		var iters int
		cgMed := medianSearchTime(queries, func(q int) {
			_, it, err := ix.ExactScoresCG(q, 1e-8)
			if err != nil {
				fatal(err)
			}
			iters += it
		})
		exactMed := medianSearchTime(queries, func(q int) {
			if _, err := exact.TopK(q, 5); err != nil {
				fatal(err)
			}
		})
		// Fresh builds for precompute timing.
		t0 := time.Now()
		if _, err := core.NewIndex(g, core.Options{}); err != nil {
			fatal(err)
		}
		incPre := time.Since(t0)
		t1 := time.Now()
		if _, err := core.NewIndex(g, core.Options{Exact: true}); err != nil {
			fatal(err)
		}
		comPre := time.Since(t1)
		rows = append(rows, []string{
			name,
			eval.Seconds(cgMed),
			fmt.Sprintf("%.1f", float64(iters)/float64(len(queries))),
			eval.Seconds(exactMed),
			eval.Seconds(incPre),
			eval.Seconds(comPre),
		})
	}
	fmt.Println("MogulCG extension: exact scores via IC(0)-preconditioned CG vs MogulE")
	emitTable(rows)
}

// expSharded reports the sharding trade-off (docs/SHARDING.md): for
// S = 1, 2, 4, ... up to -shards, the parallel multi-shard build time,
// the median fan-out search time, and recall@10 of the fan-out ranking
// against the unsharded index as oracle — the scaling lever past one
// precomputation, priced in build speedup versus recall.
func expSharded(l *lab) {
	const name = "NUS-WIDE"
	const k = 10
	ds := l.dataset(name)
	queries := l.queryNodes(name)

	// Unsharded oracle: one index over the full dataset, built through
	// the same public path the sharded builds use.
	t0 := time.Now()
	oracle, err := mogul.Build(ds.Points, mogul.Options{Seed: l.seed})
	if err != nil {
		fatal(err)
	}
	oracleBuild := time.Since(t0)
	ref := make(map[int][]int, len(queries))
	for _, q := range queries {
		res, err := oracle.TopK(q, k)
		if err != nil {
			fatal(err)
		}
		ref[q] = eval.TopKIDs(res)
	}
	oracleMed := medianSearchTime(queries, func(q int) {
		if _, err := oracle.TopK(q, k); err != nil {
			fatal(err)
		}
	})

	rows := [][]string{{"shards", "build [s]", "search [s]", "recall@10"}}
	rows = append(rows, []string{"1 (plain)", eval.Seconds(oracleBuild), eval.Seconds(oracleMed), "1.000"})
	for s := 1; s <= l.maxShards; s *= 2 {
		t1 := time.Now()
		six, err := mogul.BuildSharded(ds.Points, mogul.Options{Seed: l.seed}, mogul.ShardOptions{
			Shards: s, Partitioner: mogul.PartitionKMeans,
		})
		if err != nil {
			fatal(err)
		}
		build := time.Since(t1)
		var recall float64
		for _, q := range queries {
			res, err := six.TopK(q, k)
			if err != nil {
				fatal(err)
			}
			recall += eval.PAtK(eval.TopKIDs(res), ref[q])
		}
		recall /= float64(len(queries))
		med := medianSearchTime(queries, func(q int) {
			if _, err := six.TopK(q, k); err != nil {
				fatal(err)
			}
		})
		rows = append(rows, []string{
			fmt.Sprintf("%d", s),
			eval.Seconds(build),
			eval.Seconds(med),
			fmt.Sprintf("%.3f", recall),
		})
	}
	fmt.Printf("Sharded fan-out on %s (k-means partitioner, top-%d, oracle = unsharded index)\n", ds.Name, k)
	emitTable(rows)
}

// expEMR maps the anchor-graph engine's recall/latency frontier
// (docs/EMR.md): a fine-grained retrieval mixture (micro-clusters of
// ~10 near-duplicates, low intrinsic dimension — the regime the
// EMR engine targets), the exact engine as oracle, and BuildEMR at a
// sweep of anchor counts. Search times are median per out-of-sample
// query; recall@10 counts overlap with the oracle's top-10.
func expEMR(l *lab) {
	const k = 10
	n := l.scale.nus
	ds := mogul.NewMixture(mogul.MixtureConfig{
		N: n, Classes: n / 10, Dim: 8, WithinStd: 0.25, Separation: 3.0, Seed: l.seed,
	})
	queries := emrQueryVectors(ds.Points, 32, l.seed)

	t0 := time.Now()
	exact, err := mogul.Build(ds.Points, mogul.Options{Exact: true, Seed: l.seed})
	if err != nil {
		fatal(err)
	}
	exactBuild := time.Since(t0)
	ref := make([][]int, len(queries))
	for i, q := range queries {
		res, err := exact.TopKVector(q, k)
		if err != nil {
			fatal(err)
		}
		ref[i] = eval.TopKIDs(res)
	}
	exactTimes := make([]time.Duration, 0, len(queries))
	for _, q := range queries {
		t1 := time.Now()
		if _, err := exact.TopKVector(q, k); err != nil {
			fatal(err)
		}
		exactTimes = append(exactTimes, time.Since(t1))
	}

	rows := [][]string{{"engine", "anchors", "build [s]", "search [s]", "recall@10"}}
	rows = append(rows, []string{
		"MogulE (oracle)", "-", eval.Seconds(exactBuild),
		eval.Seconds(medianDuration(exactTimes)), "1.000",
	})
	for _, p := range []int{256, 512, 1024, 2048, 2560} {
		if p > n/4 {
			continue
		}
		t1 := time.Now()
		engine, err := mogul.BuildEMR(ds.Points, mogul.Options{Seed: l.seed}, mogul.EMROptions{
			NumAnchors: p, NumNearestAnchors: 24,
		})
		if err != nil {
			fatal(err)
		}
		build := time.Since(t1)
		var recall float64
		times := make([]time.Duration, 0, len(queries))
		for i, q := range queries {
			t2 := time.Now()
			res, err := engine.TopKVector(q, k)
			if err != nil {
				fatal(err)
			}
			times = append(times, time.Since(t2))
			recall += eval.PAtK(eval.TopKIDs(res), ref[i])
		}
		recall /= float64(len(queries))
		rows = append(rows, []string{
			"EMR", fmt.Sprintf("%d", p), eval.Seconds(build),
			eval.Seconds(medianDuration(times)), fmt.Sprintf("%.3f", recall),
		})
	}
	fmt.Printf("EMR anchor-graph engine on %s (top-%d, oracle = exact MogulE, out-of-sample queries)\n", ds.Name, k)
	emitTable(rows)
}

// emrQueryVectors derives out-of-sample queries by perturbing stored
// points — the near-duplicate lookup workload the frontier is
// measured on.
func emrQueryVectors(pts []mogul.Vector, count int, seed int64) []mogul.Vector {
	rng := rand.New(rand.NewSource(seed ^ 0x5f5e))
	out := make([]mogul.Vector, count)
	for i := range out {
		base := pts[rng.Intn(len(pts))]
		q := make(mogul.Vector, len(base))
		for j := range q {
			q[j] = base[j] + 0.05*rng.NormFloat64()
		}
		out[i] = q
	}
	return out
}

// expSpectral maps the truncated-eigenbasis engine's rank-vs-recall
// frontier: for each retained rank r, build time, median per-query
// latency, and recall@10 against the exact oracle on the same
// out-of-sample near-duplicate workload the EMR experiment uses, so
// the two engines' frontiers are directly comparable. The hybrid
// estimator's adaptive hop expansion carries the component-local part
// of the resolvent exactly, so on this clustered workload recall
// stays high even at ranks far below the cluster count; the sweep
// shows what (little) extra rank buys once the hops saturate
// (docs/SPECTRAL.md).
func expSpectral(l *lab) {
	const k = 10
	n := l.scale.nus
	ds := mogul.NewMixture(mogul.MixtureConfig{
		N: n, Classes: n / 10, Dim: 8, WithinStd: 0.25, Separation: 3.0, Seed: l.seed,
	})
	queries := emrQueryVectors(ds.Points, 32, l.seed)

	t0 := time.Now()
	exact, err := mogul.Build(ds.Points, mogul.Options{Exact: true, Seed: l.seed})
	if err != nil {
		fatal(err)
	}
	exactBuild := time.Since(t0)
	ref := make([][]int, len(queries))
	for i, q := range queries {
		res, err := exact.TopKVector(q, k)
		if err != nil {
			fatal(err)
		}
		ref[i] = eval.TopKIDs(res)
	}
	exactTimes := make([]time.Duration, 0, len(queries))
	for _, q := range queries {
		t1 := time.Now()
		if _, err := exact.TopKVector(q, k); err != nil {
			fatal(err)
		}
		exactTimes = append(exactTimes, time.Since(t1))
	}

	rows := [][]string{{"engine", "rank", "build [s]", "search [s]", "recall@10"}}
	rows = append(rows, []string{
		"MogulE (oracle)", "-", eval.Seconds(exactBuild),
		eval.Seconds(medianDuration(exactTimes)), "1.000",
	})
	for _, r := range []int{16, 32, 64, 128, 256} {
		if r > n/4 {
			continue
		}
		t1 := time.Now()
		engine, err := mogul.BuildSpectral(ds.Points,
			mogul.Options{Seed: l.seed},
			mogul.SpectralOptions{Rank: r})
		if err != nil {
			fatal(err)
		}
		build := time.Since(t1)
		var recall float64
		times := make([]time.Duration, 0, len(queries))
		for i, q := range queries {
			t2 := time.Now()
			res, err := engine.TopKVector(q, k)
			if err != nil {
				fatal(err)
			}
			times = append(times, time.Since(t2))
			recall += eval.PAtK(eval.TopKIDs(res), ref[i])
		}
		recall /= float64(len(queries))
		rows = append(rows, []string{
			"Spectral", fmt.Sprintf("%d", r), eval.Seconds(build),
			eval.Seconds(medianDuration(times)), fmt.Sprintf("%.3f", recall),
		})
	}
	fmt.Printf("Spectral (FSR) engine on %s (top-%d, oracle = exact MogulE, out-of-sample queries)\n", ds.Name, k)
	emitTable(rows)
}
