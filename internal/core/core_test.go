package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"mogul/internal/baselinetest"
	"mogul/internal/cluster"
	"mogul/internal/dataset"
	"mogul/internal/knn"
)

// testGraph builds a small labelled mixture graph.
func testGraph(t *testing.T, n, classes int, seed int64) *knn.Graph {
	t.Helper()
	ds := dataset.Mixture(dataset.MixtureConfig{
		N: n, Classes: classes, Dim: 8, WithinStd: 0.2, Separation: 2, Seed: seed,
	})
	g, err := knn.BuildGraph(ds.Points, knn.GraphConfig{K: 5})
	if err != nil {
		t.Fatalf("BuildGraph: %v", err)
	}
	return g
}

func TestLayoutInvariants(t *testing.T) {
	g := testGraph(t, 300, 6, 1)
	cl, err := cluster.Louvain(g.Adj, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	layout, err := BuildLayout(g.Adj, cl)
	if err != nil {
		t.Fatal(err)
	}
	n := g.Len()
	if layout.Start[0] != 0 || layout.Start[layout.NumClusters] != n {
		t.Fatalf("layout does not cover [0,%d): %v", n, layout.Start)
	}
	// ClusterOf must agree with Start ranges.
	for c := 0; c < layout.NumClusters; c++ {
		lo, hi := layout.ClusterRange(c)
		for p := lo; p < hi; p++ {
			if layout.ClusterOf[p] != c {
				t.Fatalf("ClusterOf[%d] = %d, want %d", p, layout.ClusterOf[p], c)
			}
		}
	}
	// Lemma 3 precondition: any node outside the border cluster has
	// only within-cluster edges.
	border := layout.Border()
	for p := 0; p < n; p++ {
		if layout.ClusterOf[p] == border {
			continue
		}
		orig := layout.Perm.NewToOld[p]
		cols, _ := g.Adj.Row(orig)
		for _, j := range cols {
			pj := layout.Perm.OldToNew[j]
			if layout.ClusterOf[pj] != layout.ClusterOf[p] && layout.ClusterOf[pj] != border {
				t.Fatalf("non-border node %d has cross-cluster edge to %d", p, pj)
			}
		}
	}
	// Within each cluster, nodes are in ascending within-cluster edge
	// count (Algorithm 1 line 12).
	within := func(p int) int {
		orig := layout.Perm.NewToOld[p]
		cols, _ := g.Adj.Row(orig)
		count := 0
		for _, j := range cols {
			if layout.ClusterOf[layout.Perm.OldToNew[j]] == layout.ClusterOf[p] {
				count++
			}
		}
		return count
	}
	for c := 0; c < layout.NumClusters; c++ {
		lo, hi := layout.ClusterRange(c)
		for p := lo + 1; p < hi; p++ {
			if within(p) < within(p-1) {
				t.Fatalf("cluster %d not ascending in within-cluster degree at %d", c, p)
			}
		}
	}
}

func TestLemma3FactorStructure(t *testing.T) {
	// Lemma 3: L_ij = 0 when i and j lie in different clusters and
	// neither is in C_N — verified structurally on both factors.
	g := testGraph(t, 300, 6, 2)
	for _, exact := range []bool{false, true} {
		ix, err := NewIndex(g, Options{Exact: exact})
		if err != nil {
			t.Fatal(err)
		}
		layout := ix.layout
		cN := layout.BorderStart()
		f := ix.Factor()
		for j := 0; j < f.N; j++ {
			rows, _ := f.Col(j)
			for _, i := range rows {
				if i < cN && j < cN && layout.ClusterOf[i] != layout.ClusterOf[j] {
					t.Fatalf("exact=%v: factor entry (%d,%d) crosses clusters %d/%d",
						exact, i, j, layout.ClusterOf[i], layout.ClusterOf[j])
				}
			}
		}
	}
}

func TestLemma4YSupport(t *testing.T) {
	// The restricted forward substitution must agree with the full one
	// and y must vanish outside C_Q ∪ C_N.
	g := testGraph(t, 250, 5, 3)
	ix, err := NewIndex(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	layout := ix.layout
	f := ix.Factor()
	n := f.N
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		query := rng.Intn(n)
		pos := layout.Perm.OldToNew[query]
		q := make([]float64, n)
		q[pos] = 1 - ix.Alpha()
		yFull := f.ForwardSolve(q)
		cq := layout.ClusterOf[pos]
		border := layout.Border()
		for i := 0; i < n; i++ {
			c := layout.ClusterOf[i]
			if c != cq && c != border && yFull[i] != 0 {
				t.Fatalf("y[%d] = %g outside C_Q ∪ C_N (cluster %d, cq %d)", i, yFull[i], c, cq)
			}
		}
	}
}

func TestPrunedEqualsUnprunedEqualsFull(t *testing.T) {
	g := testGraph(t, 400, 8, 4)
	ix, err := NewIndex(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		query := rng.Intn(g.Len())
		k := 1 + rng.Intn(20)
		pruned, info, err := ix.Search(query, SearchOptions{K: k})
		if err != nil {
			t.Fatal(err)
		}
		unpruned, _, err := ix.Search(query, SearchOptions{K: k, DisablePruning: true})
		if err != nil {
			t.Fatal(err)
		}
		full, _, err := ix.Search(query, SearchOptions{K: k, FullSubstitution: true})
		if err != nil {
			t.Fatal(err)
		}
		assertSameRanking(t, pruned, unpruned, "pruned vs unpruned")
		assertSameRanking(t, pruned, full, "pruned vs full substitution")
		if info.ClustersPruned+info.ClustersScanned > ix.layout.NumClusters {
			t.Fatalf("inconsistent counters: %+v", info)
		}
	}
}

// assertSameRanking requires identical node sets and matching scores;
// equal-score nodes may permute between methods at the k-th boundary,
// so the comparison is on score multisets plus set overlap of ids with
// strictly distinct scores.
func assertSameRanking(t *testing.T, a, b []Result, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: lengths %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if math.Abs(a[i].Score-b[i].Score) > 1e-9*(1+math.Abs(a[i].Score)) {
			t.Fatalf("%s: rank %d scores %g vs %g", label, i, a[i].Score, b[i].Score)
		}
	}
	// Node sets must match except for exact score ties at the cut.
	setA := map[int]bool{}
	for _, r := range a {
		setA[r.Node] = true
	}
	for i, r := range b {
		if !setA[r.Node] {
			// Tolerate only when the score ties another result.
			tied := false
			for _, ra := range a {
				if math.Abs(ra.Score-r.Score) <= 1e-12*(1+math.Abs(r.Score)) {
					tied = true
					break
				}
			}
			if !tied {
				t.Fatalf("%s: node %d (rank %d, score %g) missing from other ranking", label, r.Node, i, r.Score)
			}
		}
	}
}

func TestMogulEMatchesDenseInverse(t *testing.T) {
	g := testGraph(t, 200, 4, 5)
	ix, err := NewIndex(g, Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	want := baselinetest.InverseScores(g, ix.Alpha())
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 5; trial++ {
		query := rng.Intn(g.Len())
		got, err := ix.AllScores(query)
		if err != nil {
			t.Fatal(err)
		}
		ref := want(query)
		for i := range got {
			if math.Abs(got[i]-ref[i]) > 1e-8*(1+math.Abs(ref[i])) {
				t.Fatalf("query %d: score[%d] = %g, want %g", query, i, got[i], ref[i])
			}
		}
		// The pruned exact search must return the true top-k.
		res, err := ix.TopK(query, 10)
		if err != nil {
			t.Fatal(err)
		}
		type pair struct {
			id int
			s  float64
		}
		all := make([]pair, len(ref))
		for i, s := range ref {
			all[i] = pair{i, s}
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].s != all[b].s {
				return all[a].s > all[b].s
			}
			return all[a].id < all[b].id
		})
		for i, r := range res {
			if math.Abs(r.Score-all[i].s) > 1e-8*(1+math.Abs(all[i].s)) {
				t.Fatalf("query %d rank %d: score %g, want %g", query, i, r.Score, all[i].s)
			}
		}
	}
}

func TestUpperBoundDominatesClusterScores(t *testing.T) {
	// Lemma 7: no node in a prunable cluster may exceed the cluster's
	// upper bound.
	g := testGraph(t, 350, 7, 6)
	ix, err := NewIndex(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	layout := ix.layout
	f := ix.Factor()
	n := f.N
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		query := rng.Intn(n)
		pos := layout.Perm.OldToNew[query]
		cq := layout.ClusterOf[pos]
		border := layout.Border()
		q := make([]float64, n)
		q[pos] = 1 - ix.Alpha()
		x := f.Solve(q)
		cN := layout.BorderStart()
		xAbsBorder := make([]float64, n-cN)
		for i := cN; i < n; i++ {
			xAbsBorder[i-cN] = math.Abs(x[i])
		}
		for c := 0; c < layout.NumClusters; c++ {
			if c == cq || c == border {
				continue
			}
			bound := ix.bounds.clusterBound(c, layout, xAbsBorder)
			lo, hi := layout.ClusterRange(c)
			for i := lo; i < hi; i++ {
				if x[i] > bound+1e-9*(1+math.Abs(bound)) {
					t.Fatalf("x'[%d] = %g exceeds cluster %d bound %g", i, x[i], c, bound)
				}
			}
		}
	}
}

func TestSearchErrors(t *testing.T) {
	g := testGraph(t, 100, 3, 8)
	ix, err := NewIndex(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.TopK(-1, 5); err == nil {
		t.Fatal("negative query accepted")
	}
	if _, err := ix.TopK(g.Len(), 5); err == nil {
		t.Fatal("out-of-range query accepted")
	}
	if _, _, err := ix.Search(0, SearchOptions{K: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := NewIndex(g, Options{Alpha: 1.5}); err == nil {
		t.Fatal("alpha > 1 accepted")
	}
	if _, err := NewIndex(g, Options{Alpha: -0.1}); err == nil {
		t.Fatal("alpha < 0 accepted")
	}
	// K larger than n clamps instead of failing.
	res, err := ix.TopK(0, 10*g.Len())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != g.Len() {
		t.Fatalf("clamped K returned %d results, want %d", len(res), g.Len())
	}
}

func TestRandomAndIdentityOrderings(t *testing.T) {
	g := testGraph(t, 200, 4, 9)
	for _, ord := range []Ordering{OrderingRandom, OrderingIdentity} {
		ix, err := NewIndex(g, Options{Ordering: ord, Seed: 42, Exact: true})
		if err != nil {
			t.Fatal(err)
		}
		want := baselinetest.InverseScores(g, ix.Alpha())
		got, err := ix.AllScores(3)
		if err != nil {
			t.Fatal(err)
		}
		ref := want(3)
		for i := range got {
			if math.Abs(got[i]-ref[i]) > 1e-8*(1+math.Abs(ref[i])) {
				t.Fatalf("ordering %d: score[%d] = %g, want %g", ord, i, got[i], ref[i])
			}
		}
	}
}

func TestOutOfSampleSearch(t *testing.T) {
	ds := dataset.Mixture(dataset.MixtureConfig{
		N: 300, Classes: 5, Dim: 8, WithinStd: 0.2, Separation: 3, Seed: 10,
	})
	in, queries, qLabels, err := dataset.HoldOut(ds, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := knn.BuildGraph(in.Points, knn.GraphConfig{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hits, total := 0, 0
	for qi, q := range queries {
		res, bd, err := ix.SearchOutOfSample(q, OOSOptions{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 5 {
			t.Fatalf("query %d: got %d results", qi, len(res))
		}
		if bd.Overall() <= 0 {
			t.Fatalf("query %d: non-positive breakdown time", qi)
		}
		if len(bd.Neighbors) == 0 {
			t.Fatalf("query %d: no surrogate neighbours", qi)
		}
		for _, r := range res {
			total++
			if in.Labels[r.Node] == qLabels[qi] {
				hits++
			}
		}
	}
	// Well-separated mixture: retrieval should be mostly right.
	if prec := float64(hits) / float64(total); prec < 0.8 {
		t.Fatalf("out-of-sample retrieval precision %.2f below 0.8", prec)
	}
	// Error cases.
	if _, _, err := ix.SearchOutOfSample(queries[0], OOSOptions{K: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, _, err := ix.SearchOutOfSample(queries[0][:3], OOSOptions{K: 5}); err == nil {
		t.Fatal("wrong-dimension query accepted")
	}
}

func TestExactScoresCG(t *testing.T) {
	g := testGraph(t, 250, 5, 14)
	ix, err := NewIndex(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := baselinetest.InverseScores(g, ix.Alpha())
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		q := rng.Intn(g.Len())
		got, iters, err := ix.ExactScoresCG(q, 1e-10)
		if err != nil {
			t.Fatal(err)
		}
		if iters < 1 {
			t.Fatalf("CG reported %d iterations", iters)
		}
		ref := want(q)
		for i := range got {
			if math.Abs(got[i]-ref[i]) > 1e-7*(1+math.Abs(ref[i])) {
				t.Fatalf("query %d: CG score[%d] = %g, want %g", q, i, got[i], ref[i])
			}
		}
	}
	// The exact index's complete factor is a perfect preconditioner.
	exact, err := NewIndex(g, Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	_, iters, err := exact.ExactScoresCG(0, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if iters > 2 {
		t.Fatalf("complete-factor preconditioner took %d iterations", iters)
	}
	if _, _, err := ix.ExactScoresCG(-1, 0); err == nil {
		t.Fatal("negative query accepted")
	}
}

func TestSearchMulti(t *testing.T) {
	g := testGraph(t, 300, 6, 12)
	bare, err := NewIndex(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix := newDyn(bare)
	// Single seed with weight 1 must match TopK exactly.
	single, _, err := ix.SearchMulti([]WeightedQuery{{Node: 5, Weight: 1}}, SearchOptions{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ix.TopK(5, 8)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRanking(t, single, plain, "multi(1) vs single")

	// Linearity: scores for two seeds equal the weighted sum of
	// individual score vectors (the solve is linear in q).
	s1, err := ix.AllScores(5)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ix.AllScores(80)
	if err != nil {
		t.Fatal(err)
	}
	multi, _, err := ix.SearchMulti(
		[]WeightedQuery{{Node: 5, Weight: 0.5}, {Node: 80, Weight: 0.5}},
		SearchOptions{K: g.Len(), DisablePruning: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[int]float64, len(multi))
	for _, r := range multi {
		got[r.Node] = r.Score
	}
	for i := range s1 {
		want := 0.5*s1[i] + 0.5*s2[i]
		if math.Abs(got[i]-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("node %d: multi score %g, want %g", i, got[i], want)
		}
	}

	// Errors (the empty seed set is the engine lifecycle's to refuse).
	if _, _, err := ix.SearchMulti([]WeightedQuery{{Node: -1, Weight: 1}}, SearchOptions{K: 3}); err == nil {
		t.Fatal("negative seed accepted")
	}
}

func TestMogulApproximationQuality(t *testing.T) {
	// The headline claim (Section 5.2.1): Mogul's approximate top-k
	// closely matches the exact inverse-matrix top-k, and retrieval
	// precision against labels is high (> 0.9 on COIL).
	ds := dataset.COILSim(dataset.COILConfig{Objects: 20, Poses: 36, Dim: 24, Seed: 3})
	g, err := knn.BuildGraph(ds.Points, knn.GraphConfig{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := NewIndex(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewIndex(g, Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	var patk, prec float64
	const trials = 30
	const k = 5
	for trial := 0; trial < trials; trial++ {
		query := rng.Intn(g.Len())
		ares, err := approx.TopK(query, k+1)
		if err != nil {
			t.Fatal(err)
		}
		eres, err := exact.TopK(query, k+1)
		if err != nil {
			t.Fatal(err)
		}
		aset := map[int]bool{}
		for _, r := range ares {
			if r.Node != query {
				aset[r.Node] = true
			}
		}
		hits := 0
		cnt := 0
		for _, r := range eres {
			if r.Node == query {
				continue
			}
			cnt++
			if aset[r.Node] {
				hits++
			}
			if cnt == k {
				break
			}
		}
		patk += float64(hits) / float64(k)
		labelHits, labelCnt := 0, 0
		for _, r := range ares {
			if r.Node == query {
				continue
			}
			labelCnt++
			if ds.Labels[r.Node] == ds.Labels[query] {
				labelHits++
			}
		}
		prec += float64(labelHits) / float64(labelCnt)
	}
	patk /= trials
	prec /= trials
	if patk < 0.7 {
		t.Fatalf("mean P@%d = %.2f, expected > 0.7", k, patk)
	}
	if prec < 0.9 {
		t.Fatalf("mean retrieval precision = %.2f, expected > 0.9 (paper reports > 0.9)", prec)
	}
}
