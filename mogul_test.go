package mogul

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func buildTestIndex(t *testing.T, opts Options) (*Index, *Dataset) {
	t.Helper()
	ds := NewMixture(MixtureConfig{
		N: 400, Classes: 8, Dim: 12, WithinStd: 0.2, Separation: 2.5, Seed: 42,
	})
	ix, err := BuildFromDataset(ds, opts)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return ix, ds
}

func TestBuildAndTopK(t *testing.T) {
	ix, ds := buildTestIndex(t, Options{})
	if ix.Len() != ds.Len() {
		t.Fatalf("Len = %d, want %d", ix.Len(), ds.Len())
	}
	res, err := ix.TopK(10, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 6 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].Node != 10 {
		t.Fatalf("query not rank 1: %+v", res[0])
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Fatal("results not sorted")
		}
	}
	// Retrieval quality on separated mixture.
	hits, cnt := 0, 0
	for _, r := range res {
		if r.Node == 10 {
			continue
		}
		cnt++
		if ds.Labels[r.Node] == ds.Labels[10] {
			hits++
		}
	}
	if hits < cnt-1 {
		t.Fatalf("retrieval too weak: %d/%d", hits, cnt)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Fatal("nil points accepted")
	}
	if _, err := Build([]Vector{{1, 2}}, Options{}); err == nil {
		t.Fatal("single point accepted")
	}
	bad := &Dataset{Points: []Vector{{1}, {2, 3}}}
	if _, err := BuildFromDataset(bad, Options{}); err == nil {
		t.Fatal("ragged dataset accepted")
	}
}

func TestExactModeMatchesScores(t *testing.T) {
	ds := NewMixture(MixtureConfig{
		N: 200, Classes: 4, Dim: 8, WithinStd: 0.2, Separation: 2.5, Seed: 7,
	})
	approx, err := BuildFromDataset(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := BuildFromDataset(ds, Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	if approx.Exact() || !exact.Exact() {
		t.Fatal("Exact() flags wrong")
	}
	// Approximate scores track exact ones closely in aggregate.
	a, err := approx.Scores(3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := exact.Scores(3)
	if err != nil {
		t.Fatal(err)
	}
	var num, den float64
	for i := range a {
		num += (a[i] - e[i]) * (a[i] - e[i])
		den += e[i] * e[i]
	}
	if rel := math.Sqrt(num / den); rel > 0.5 {
		t.Fatalf("relative score error %.2f too large", rel)
	}
}

func TestTopKVector(t *testing.T) {
	ds := NewMixture(MixtureConfig{
		N: 300, Classes: 6, Dim: 10, WithinStd: 0.2, Separation: 3, Seed: 9,
	})
	in, queries, qLabels, err := HoldOut(ds, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildFromDataset(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hits, cnt := 0, 0
	for qi, q := range queries {
		res, err := ix.TopKVector(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			cnt++
			if in.Labels[r.Node] == qLabels[qi] {
				hits++
			}
		}
	}
	if prec := float64(hits) / float64(cnt); prec < 0.8 {
		t.Fatalf("out-of-sample precision %.2f", prec)
	}
}

func TestTopKVectorWithInfo(t *testing.T) {
	ds := NewMixture(MixtureConfig{
		N: 200, Classes: 4, Dim: 8, WithinStd: 0.2, Separation: 2.5, Seed: 13,
	})
	ix, err := BuildFromDataset(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, bd, err := ix.TopKVectorWithInfo(ds.Points[5], 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("got %d results", len(res))
	}
	if bd.Overall() <= 0 || len(bd.Neighbors) == 0 {
		t.Fatalf("breakdown empty: %+v", bd)
	}
	if bd.NearestNeighbor+bd.TopK != bd.Overall() {
		t.Fatal("breakdown phases do not sum to overall")
	}
}

func TestNeighbors(t *testing.T) {
	ix, _ := buildTestIndex(t, Options{})
	ids, weights, err := ix.Neighbors(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 || len(ids) != len(weights) {
		t.Fatalf("neighbors %d/%d", len(ids), len(weights))
	}
	if _, _, err := ix.Neighbors(-1); err == nil {
		t.Fatal("negative item accepted")
	}
	if _, _, err := ix.Neighbors(ix.Len()); err == nil {
		t.Fatal("out-of-range item accepted")
	}
}

func TestStatsPopulated(t *testing.T) {
	ix, _ := buildTestIndex(t, Options{})
	st := ix.Stats()
	if st.NumNodes != ix.Len() || st.NumClusters < 2 || st.FactorNNZ <= 0 {
		t.Fatalf("stats look empty: %+v", st)
	}
	if st.PrecomputeTime() <= 0 {
		t.Fatal("zero precompute time")
	}
}

func TestTopKWithInfoPrunes(t *testing.T) {
	ix, _ := buildTestIndex(t, Options{})
	res, info, err := ix.TopKWithInfo(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("got %d results", len(res))
	}
	if info.ClustersPruned == 0 {
		t.Log("warning: no clusters pruned on this instance (allowed but unusual)")
	}
	if info.ScoresComputed <= 0 {
		t.Fatalf("no scores computed: %+v", info)
	}
}

func TestConcurrentSearches(t *testing.T) {
	ix, _ := buildTestIndex(t, Options{})
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	rng := rand.New(rand.NewSource(1))
	queries := make([]int, 32)
	for i := range queries {
		queries[i] = rng.Intn(ix.Len())
	}
	for _, q := range queries {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			if _, err := ix.TopK(q, 5); err != nil {
				errs <- err
			}
			if _, err := ix.TopKVector(make(Vector, 12), 5); err != nil {
				errs <- err
			}
		}(q)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTopKSet(t *testing.T) {
	ix, ds := buildTestIndex(t, Options{})
	seeds := []int{3, 4, 5}
	res, err := ix.TopKSet(seeds, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Fatalf("got %d results", len(res))
	}
	// Seeds share a class in this mixture layout only if generated so;
	// at minimum the answers should be dominated by the seeds' labels.
	seedLabels := map[int]bool{}
	for _, s := range seeds {
		seedLabels[ds.Labels[s]] = true
	}
	hits := 0
	for _, r := range res {
		if seedLabels[ds.Labels[r.Node]] {
			hits++
		}
	}
	if hits < len(res)/2 {
		t.Fatalf("only %d/%d answers share a seed label", hits, len(res))
	}
	if _, err := ix.TopKSet(nil, 5); err == nil {
		t.Fatal("empty seed set accepted")
	}
}

func TestSaveLoadIndex(t *testing.T) {
	ix, _ := buildTestIndex(t, Options{})
	path := t.TempDir() + "/index.mogul"
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != ix.Len() {
		t.Fatalf("loaded Len = %d, want %d", loaded.Len(), ix.Len())
	}
	a, err := ix.TopK(7, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.TopK(7, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs after load: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Out-of-sample search still works.
	if _, err := loaded.TopKVector(make(Vector, 12), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(t.TempDir() + "/missing"); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestDatasetGenerators(t *testing.T) {
	coil := NewCOILSim(COILConfig{Objects: 4, Poses: 10, Dim: 8, Seed: 1})
	if coil.Len() != 40 {
		t.Fatalf("COIL n = %d", coil.Len())
	}
	if NewPubFigSim(100, 1).Len() != 100 {
		t.Fatal("PubFigSim size")
	}
	if NewNUSWideSim(100, 1).Len() != 100 {
		t.Fatal("NUSWideSim size")
	}
	if NewINRIASim(100, 1).Len() != 100 {
		t.Fatal("INRIASim size")
	}
}
