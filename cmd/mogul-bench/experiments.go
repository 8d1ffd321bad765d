package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"mogul/internal/baseline"
	"mogul/internal/core"
	"mogul/internal/dataset"
	"mogul/internal/eval"
	"mogul/internal/knn"
)

// expFig1 reproduces Figure 1: per-query search time of Mogul(k) for
// k in {5,10,15,20} against EMR (d=10), FMR (rank 250), Iterative
// (eps=1e-4) and the Inverse baseline, per dataset. Inverse mirrors
// the paper's measurement (the O(n^3) solve happens inside the query)
// and is skipped above -inverse-max-n, as the paper skipped it on its
// larger datasets.
func expFig1(l *lab) {
	rows := [][]string{{"method", "COIL-100", "PubFig", "NUS-WIDE", "INRIA"}}
	methods := []string{"Mogul(5)", "Mogul(10)", "Mogul(15)", "Mogul(20)", "EMR", "FMR", "Iterative", "Inverse"}
	cells := map[string][]string{}
	for _, m := range methods {
		cells[m] = []string{}
	}
	for _, name := range datasetNames {
		g := l.graph(name)
		ix := l.index(name)
		queries := l.queryNodes(name)

		for _, k := range []int{5, 10, 15, 20} {
			med := medianSearchTime(queries, func(q int) {
				if _, err := ix.TopK(q, k); err != nil {
					fatal(err)
				}
			})
			cells[fmt.Sprintf("Mogul(%d)", k)] = append(cells[fmt.Sprintf("Mogul(%d)", k)], eval.Seconds(med))
		}

		emr := l.emr(name, 10)
		med := medianSearchTime(queries, func(q int) {
			if _, err := emr.TopK(q, 5); err != nil {
				fatal(err)
			}
		})
		cells["EMR"] = append(cells["EMR"], eval.Seconds(med))

		if g.Len() <= l.fmrMaxN {
			fmr, err := baseline.NewFMR(g, core.DefaultAlpha, baseline.FMRConfig{
				NumBlocks: fmrBlocksFor(g.Len()), Rank: 250, Seed: l.seed,
			})
			if err != nil {
				fatal(err)
			}
			med = medianSearchTime(queries, func(q int) {
				if _, err := fmr.TopK(q, 5); err != nil {
					fatal(err)
				}
			})
			cells["FMR"] = append(cells["FMR"], eval.Seconds(med))
		} else {
			cells["FMR"] = append(cells["FMR"], "- (n > fmr-max-n)")
		}

		it, err := baseline.NewIterative(g, core.DefaultAlpha)
		if err != nil {
			fatal(err)
		}
		med = medianSearchTime(queries[:min(3, len(queries))], func(q int) {
			if _, err := it.TopK(q, 5); err != nil {
				fatal(err)
			}
		})
		cells["Iterative"] = append(cells["Iterative"], eval.Seconds(med))

		if g.Len() <= l.inverseMaxN {
			inv, err := baseline.NewInverse(g, core.DefaultAlpha)
			if err != nil {
				fatal(err)
			}
			// One query, cold cache: the per-query cost the paper
			// reports includes the O(n^3) solve.
			inv.ResetCache()
			t0 := time.Now()
			if _, err := inv.TopK(queries[0], 5); err != nil {
				fatal(err)
			}
			cells["Inverse"] = append(cells["Inverse"], eval.Seconds(time.Since(t0)))
		} else {
			cells["Inverse"] = append(cells["Inverse"], "- (n > inverse-max-n)")
		}
	}
	for _, m := range methods {
		rows = append(rows, append([]string{m}, cells[m]...))
	}
	fmt.Println("Figure 1: search time [s] (median per query; k = answer count for Mogul)")
	emitTable(rows)
}

func fmrBlocksFor(n int) int {
	b := n / 300
	if b < 8 {
		b = 8
	}
	return b
}

// anchorSweep is the x axis of Figures 2-4.
func anchorSweep(n int) []int {
	all := []int{10, 25, 50, 100, 250, 500, 1000}
	out := all[:0:0]
	for _, d := range all {
		if d <= n {
			out = append(out, d)
		}
	}
	return out
}

// expFig234 reproduces Figures 2, 3 and 4 on the COIL stand-in:
// P@k, retrieval precision and search time versus EMR's anchor count,
// with Mogul and MogulE as (anchor-independent) references.
func expFig234(l *lab) {
	const name = "COIL-100"
	const k = 5
	ds := l.dataset(name)
	ix := l.index(name)
	exact := l.exactIndex(name)
	queries := l.queryNodes(name)

	// Reference top-k comes from the exact factorization, which the
	// test suite verifies equals the inverse-matrix scores.
	refTopK := make(map[int][]int, len(queries))
	for _, q := range queries {
		scores, err := exact.AllScores(q)
		if err != nil {
			fatal(err)
		}
		refTopK[q] = eval.TopKFromScores(scores, k, nil)
	}

	type rankerRow struct {
		label string
		patk  float64
		prec  float64
		time  time.Duration
	}
	evalRanker := func(label string, topk func(q int) []core.Result) rankerRow {
		var patk, prec float64
		med := medianSearchTime(queries, func(q int) { topk(q) })
		for _, q := range queries {
			res := topk(q)
			ids := eval.TopKIDs(res)
			patk += eval.PAtK(ids, refTopK[q])
			prec += eval.RetrievalPrecision(ids, ds.Labels, ds.Labels[q], q)
		}
		n := float64(len(queries))
		return rankerRow{label: label, patk: patk / n, prec: prec / n, time: med}
	}

	var rows []rankerRow
	rows = append(rows, evalRanker("Mogul", func(q int) []core.Result {
		res, err := ix.TopK(q, k)
		if err != nil {
			fatal(err)
		}
		return res
	}))
	rows = append(rows, evalRanker("MogulE", func(q int) []core.Result {
		res, err := exact.TopK(q, k)
		if err != nil {
			fatal(err)
		}
		return res
	}))
	for _, d := range anchorSweep(ds.Len()) {
		emr := l.emr(name, d)
		rows = append(rows, evalRanker(fmt.Sprintf("EMR(d=%d)", d), func(q int) []core.Result {
			res, err := emr.TopK(q, k)
			if err != nil {
				fatal(err)
			}
			return res
		}))
	}

	table := [][]string{{"method", "P@5 (Fig 2)", "retrieval precision (Fig 3)", "search time [s] (Fig 4)"}}
	for _, r := range rows {
		table = append(table, []string{
			r.label,
			fmt.Sprintf("%.3f", r.patk),
			fmt.Sprintf("%.3f", r.prec),
			eval.Seconds(r.time),
		})
	}
	fmt.Printf("Figures 2-4: accuracy and time vs number of anchor points (%s, top-%d)\n", ds.Name, k)
	emitTable(table)
}

// expFig5 reproduces Figure 5: the pruning ablation. "Mogul" is the
// full algorithm, "W/O estimation" drops the upper-bound pruning but
// keeps restricted substitution, "Incomplete Cholesky" computes all
// scores with unrestricted substitution.
func expFig5(l *lab) {
	rows := [][]string{{"variant", "COIL-100", "PubFig", "NUS-WIDE", "INRIA"}}
	variants := []struct {
		label string
		opts  core.SearchOptions
	}{
		{"Mogul", core.SearchOptions{K: 5}},
		{"W/O estimation", core.SearchOptions{K: 5, DisablePruning: true}},
		{"Incomplete Cholesky", core.SearchOptions{K: 5, FullSubstitution: true}},
	}
	cells := make([][]string, len(variants))
	pruned := []string{}
	for _, name := range datasetNames {
		ix := l.index(name)
		queries := l.queryNodes(name)
		var prunedCount, totalClusters int
		for vi, v := range variants {
			opts := v.opts
			med := medianSearchTime(queries, func(q int) {
				_, info, err := ix.Search(q, opts)
				if err != nil {
					fatal(err)
				}
				if vi == 0 {
					prunedCount += info.ClustersPruned
					totalClusters += info.ClustersPruned + info.ClustersScanned
				}
			})
			cells[vi] = append(cells[vi], eval.Seconds(med))
		}
		pruned = append(pruned, fmt.Sprintf("%s: %.1f%% of clusters pruned", name,
			100*float64(prunedCount)/float64(max(totalClusters, 1))))
	}
	for vi, v := range variants {
		rows = append(rows, append([]string{v.label}, cells[vi]...))
	}
	fmt.Println("Figure 5: effect of pruning on search time [s] (top-5)")
	emitTable(rows)
	for _, p := range pruned {
		fmt.Println("  " + p)
	}
}

// expFig6 reproduces Figure 6: the sparsity pattern of L under the
// Mogul ordering versus a random ordering, as ASCII spy plots plus
// non-zero counts.
func expFig6(l *lab) {
	fmt.Println("Figure 6: non-zero structure of matrix L (spy plots; '#' dense, ' ' empty)")
	for _, name := range datasetNames {
		g := l.graph(name)
		mogulIx := l.index(name)
		randIx, err := core.NewIndex(g, core.Options{Ordering: core.OrderingRandom, Seed: l.seed})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\n%s (n=%d): Mogul nnz(L)=%d | Random nnz(L)=%d\n",
			name, g.Len(), mogulIx.Factor().NNZ(), randIx.Factor().NNZ())
		fmt.Println("(a) Mogul ordering:")
		fmt.Print(eval.SpyFactor(mogulIx.Factor(), 40))
		fmt.Println("(b) Random ordering:")
		fmt.Print(eval.SpyFactor(randIx.Factor(), 40))
	}
}

// expFig7 reproduces Figure 7: out-of-sample query search time, Mogul
// versus EMR.
func expFig7(l *lab) {
	rows := [][]string{{"method", "COIL-100", "PubFig", "NUS-WIDE", "INRIA"}}
	var mogulCells, emrCells []string
	for _, name := range datasetNames {
		h := l.holdoutFor(name, 10)
		var mTimes, eTimes []time.Duration
		for _, q := range h.queries {
			t0 := time.Now()
			if _, _, err := h.index.SearchOutOfSample(q, core.OOSOptions{K: 5}); err != nil {
				fatal(err)
			}
			mTimes = append(mTimes, time.Since(t0))
			t1 := time.Now()
			if _, err := h.emr.TopKOutOfSample(q, 5); err != nil {
				fatal(err)
			}
			eTimes = append(eTimes, time.Since(t1))
		}
		mogulCells = append(mogulCells, eval.Seconds(medianDuration(mTimes)))
		emrCells = append(emrCells, eval.Seconds(medianDuration(eTimes)))
	}
	rows = append(rows, append([]string{"Mogul"}, mogulCells...))
	rows = append(rows, append([]string{"EMR"}, emrCells...))
	fmt.Println("Figure 7: out-of-sample search time [s] (median, top-5)")
	emitTable(rows)
}

// expTable2 reproduces Table 2: the breakdown of Mogul's out-of-sample
// search into nearest-neighbour and top-k phases.
func expTable2(l *lab) {
	rows := [][]string{{"dataset", "nearest neighbor [ms]", "top-k search [ms]", "overall [ms]"}}
	for _, name := range datasetNames {
		h := l.holdoutFor(name, 10)
		var nn, tk, all float64
		for _, q := range h.queries {
			_, bd, err := h.index.SearchOutOfSample(q, core.OOSOptions{K: 5})
			if err != nil {
				fatal(err)
			}
			nn += bd.NearestNeighbor.Seconds() * 1000
			tk += bd.TopK.Seconds() * 1000
			all += bd.Overall().Seconds() * 1000
		}
		n := float64(len(h.queries))
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.2f", nn/n),
			fmt.Sprintf("%.2f", tk/n),
			fmt.Sprintf("%.2f", all/n),
		})
	}
	fmt.Println("Table 2: breakdown of out-of-sample search (mean per query)")
	emitTable(rows)
}

// expFig8 reproduces Figure 8: precomputation time with the Mogul
// ordering versus the random ("Incomplete Cholesky") ordering, for
// both the incomplete factor (Mogul) and the complete factor (MogulE),
// where the ordering's fill-in reduction is most visible.
func expFig8(l *lab) {
	rows := [][]string{{"variant", "COIL-100", "PubFig", "NUS-WIDE", "INRIA"}}
	variants := []struct {
		label string
		opts  core.Options
	}{
		{"Mogul (total precompute)", core.Options{}},
		{"Incomplete Cholesky (random order)", core.Options{Ordering: core.OrderingRandom, Seed: l.seed}},
		{"MogulE complete factor (Mogul order)", core.Options{Exact: true}},
		{"complete factor (random order)", core.Options{Exact: true, Ordering: core.OrderingRandom, Seed: l.seed}},
	}
	cells := make([][]string, len(variants))
	nnzNotes := []string{}
	for _, name := range datasetNames {
		g := l.graph(name)
		var nnzMogul, nnzRandom int
		for vi, v := range variants {
			// Rebuild to time precompute fresh (the lab caches indexes).
			t0 := time.Now()
			ix, err := core.NewIndex(g, v.opts)
			if err != nil {
				fatal(err)
			}
			cells[vi] = append(cells[vi], eval.Seconds(time.Since(t0)))
			if v.opts.Exact {
				if v.opts.Ordering == core.OrderingMogul {
					nnzMogul = ix.Factor().NNZ()
				} else {
					nnzRandom = ix.Factor().NNZ()
				}
			}
		}
		nnzNotes = append(nnzNotes, fmt.Sprintf("%s: complete-factor nnz(L) %d (Mogul order) vs %d (random order)",
			name, nnzMogul, nnzRandom))
	}
	for vi, v := range variants {
		rows = append(rows, append([]string{v.label}, cells[vi]...))
	}
	fmt.Println("Figure 8: precomputation time [s]")
	emitTable(rows)
	for _, nz := range nnzNotes {
		fmt.Println("  " + nz)
	}
}

// expOrdering is the ordering ablation behind Section 4.2.2: how the
// node permutation affects approximation accuracy (P@5 against the
// exact ranking) and the complete factor's fill-in. Identity ordering
// is included as a reference; it looks artificially good on generated
// data because the generators emit points sorted by class, which is
// itself a near-ideal clustering order.
func expOrdering(l *lab) {
	const name = "COIL-100"
	const k = 5
	exact := l.exactIndex(name)
	g := l.graph(name)
	queries := l.queryNodes(name)
	ref := make(map[int][]int, len(queries))
	for _, q := range queries {
		scores, err := exact.AllScores(q)
		if err != nil {
			fatal(err)
		}
		ref[q] = eval.TopKFromScores(scores, k, nil)
	}
	rows := [][]string{{"ordering", "P@5", "factor time [s]", "complete nnz(L)"}}
	for _, ord := range []struct {
		label string
		o     core.Ordering
	}{
		{"Mogul (Algorithm 1)", core.OrderingMogul},
		{"Random", core.OrderingRandom},
		{"Identity (class-sorted input)", core.OrderingIdentity},
		{"RCM (bandwidth-reducing)", core.OrderingRCM},
	} {
		ix, err := core.NewIndex(g, core.Options{Ordering: ord.o, Seed: l.seed})
		if err != nil {
			fatal(err)
		}
		var patk float64
		for _, q := range queries {
			res, err := ix.TopK(q, k)
			if err != nil {
				fatal(err)
			}
			patk += eval.PAtK(eval.TopKIDs(res), ref[q])
		}
		complete, err := core.NewIndex(g, core.Options{Exact: true, Ordering: ord.o, Seed: l.seed})
		if err != nil {
			fatal(err)
		}
		rows = append(rows, []string{
			ord.label,
			fmt.Sprintf("%.3f", patk/float64(len(queries))),
			eval.Seconds(ix.Stats().FactorTime),
			fmt.Sprintf("%d", complete.Factor().NNZ()),
		})
	}
	fmt.Printf("Ordering ablation (Section 4.2.2) on %s, top-%d\n", l.dataset(name).Name, k)
	emitTable(rows)
}

// expFig9 reproduces the Figure 9 case studies qualitatively: for a
// few queries, the labels retrieved by plain k-NN ("Connected"),
// Mogul and EMR (d=100, the paper's case-study setting), with * on
// answers matching the query's object. The dataset is a COIL variant
// in the semantic-gap regime: clean pose manifolds in a cramped
// feature space, so different objects' rings pass close at isolated
// pinch points — exactly where nearest-neighbour retrieval drifts onto
// the wrong object while Manifold Ranking stays on the query's ring.
func expFig9(l *lab) {
	const k = 4
	objects := l.scale.coil / 72
	if objects < 1 {
		objects = 1
	}
	ds := dataset.COILSim(dataset.COILConfig{
		Objects: objects, Poses: 72, Dim: 6, Noise: 0.01, Separation: 0.08, Seed: l.seed,
	})
	g, err := knn.BuildGraph(ds.Points, knn.GraphConfig{K: 5})
	if err != nil {
		fatal(err)
	}
	ix, err := core.NewIndex(g, core.Options{})
	if err != nil {
		fatal(err)
	}
	emr, err := baseline.NewEMR(ds.Points, core.DefaultAlpha, baseline.EMRConfig{
		NumAnchors: min(100, ds.Len()), Seed: l.seed,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("Figure 9: case studies on %s/gap (top-%d answers; * = same object as query)\n", ds.Name, k)
	rows := [][]string{{"query(label)", "Connected", "Mogul", "EMR"}}
	// Sample queries across objects; keep those where the three
	// methods disagree first (the paper's case studies showcase
	// disagreement), padded with agreeing ones.
	var queries []int
	for q := 3; q < ds.Len() && len(queries) < 36; q += 72 {
		queries = append(queries, q)
	}
	fmtAnswers := func(ids []int, queryLabel, queryID int) string {
		s := ""
		count := 0
		for _, id := range ids {
			if id == queryID {
				continue
			}
			if count > 0 {
				s += " "
			}
			s += fmt.Sprintf("%d", ds.Labels[id])
			if ds.Labels[id] == queryLabel {
				s += "*"
			}
			count++
			if count == k {
				break
			}
		}
		return s
	}
	hits := func(ids []int, queryLabel, queryID int) int {
		h, count := 0, 0
		for _, id := range ids {
			if id == queryID {
				continue
			}
			if ds.Labels[id] == queryLabel {
				h++
			}
			count++
			if count == k {
				break
			}
		}
		return h
	}
	type caseRow struct {
		cells    []string
		hitTotal int // used to surface disagreeing cases first
	}
	var cases []caseRow
	var connHits, mogulHits, emrHits, total int
	for _, q := range queries {
		// Connected: direct graph neighbours by descending edge weight.
		cols, vals := g.Neighbors(q)
		type nb struct {
			id int
			w  float64
		}
		nbs := make([]nb, len(cols))
		for i := range cols {
			nbs[i] = nb{cols[i], vals[i]}
		}
		for i := 1; i < len(nbs); i++ {
			for j := i; j > 0 && nbs[j].w > nbs[j-1].w; j-- {
				nbs[j], nbs[j-1] = nbs[j-1], nbs[j]
			}
		}
		connIDs := make([]int, len(nbs))
		for i, x := range nbs {
			connIDs[i] = x.id
		}

		mres, err := ix.TopK(q, k+1)
		if err != nil {
			fatal(err)
		}
		eres, err := emr.TopK(q, k+1)
		if err != nil {
			fatal(err)
		}
		ch := hits(connIDs, ds.Labels[q], q)
		mh := hits(eval.TopKIDs(mres), ds.Labels[q], q)
		eh := hits(eval.TopKIDs(eres), ds.Labels[q], q)
		connHits += ch
		mogulHits += mh
		emrHits += eh
		total += k
		cases = append(cases, caseRow{
			cells: []string{
				fmt.Sprintf("%d(%d)", q, ds.Labels[q]),
				fmtAnswers(connIDs, ds.Labels[q], q),
				fmtAnswers(eval.TopKIDs(mres), ds.Labels[q], q),
				fmtAnswers(eval.TopKIDs(eres), ds.Labels[q], q),
			},
			hitTotal: ch + mh + eh,
		})
	}
	// Disagreeing cases first (the paper's case studies showcase the
	// queries where methods differ).
	sort.SliceStable(cases, func(a, b int) bool { return cases[a].hitTotal < cases[b].hitTotal })
	for i, c := range cases {
		if i == 8 {
			break
		}
		rows = append(rows, c.cells)
	}
	emitTable(rows)
	fmt.Printf("  precision over %d queries: Connected %.3f | Mogul %.3f | EMR %.3f\n",
		len(queries),
		float64(connHits)/float64(total),
		float64(mogulHits)/float64(total),
		float64(emrHits)/float64(total))
}

// expNNZ reproduces the Section 5.2.1 factor-size comparison: nnz(L)
// for Mogul's incomplete factor versus MogulE's complete factor on the
// COIL stand-in (the paper reports 28,293 vs 132,818).
func expNNZ(l *lab) {
	const name = "COIL-100"
	ix := l.index(name)
	exact := l.exactIndex(name)
	rows := [][]string{
		{"factorization", "nnz(L)"},
		{"Mogul (incomplete)", fmt.Sprintf("%d", ix.Factor().NNZ())},
		{"MogulE (complete)", fmt.Sprintf("%d", exact.Factor().NNZ())},
	}
	fmt.Printf("Section 5.2.1: factor size on %s (n=%d)\n", l.dataset(name).Name, l.dataset(name).Len())
	emitTable(rows)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mogul-bench:", err)
	os.Exit(1)
}
