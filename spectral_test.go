package mogul

// Tests for the spectral (Fast Spectral Ranking) engine (spectral.go).
// The headline property: at full rank the truncated resolvent is not
// an approximation — x = (1-alpha)[q + U(h-1)U^T q] with r = n equals
// the exact engine's solve exactly — so the engine is pinned against
// Build(Options{Exact: true}) at r = n, and the truncated regime is
// checked as recall against the same oracle. Plus: the dynamic-update
// contract (Insert → Compact converges to a fresh build), the
// Retriever surface, and a -race concurrent query/mutation suite.

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// spectralTestPoints is the shared clustered workload: separated
// Gaussian clusters, the regime Manifold Ranking (and its spectral
// truncation) is built for.
func spectralTestPoints(n, dim, classes int, seed int64) []Vector {
	ds := NewMixture(MixtureConfig{N: n, Classes: classes, Dim: dim, WithinStd: 0.3, Separation: 3.0, Seed: seed})
	return ds.Points
}

// TestBuildSpectralFullRankMatchesExact: with r = n the identity-completed
// transfer function reconstructs the resolvent exactly, so every score
// must match the exact engine to solver precision. This is the test
// that pins the engine's math to the paper's.
func TestBuildSpectralFullRankMatchesExact(t *testing.T) {
	const n, dim, k = 120, 6, 15
	pts := spectralTestPoints(n, dim, 5, 21)
	opts := Options{GraphK: 5, Alpha: 0.99, Seed: 21}

	exact, err := Build(pts, Options{GraphK: 5, Alpha: 0.99, Seed: 21, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := BuildSpectral(pts, opts, SpectralOptions{Rank: n, Steps: n})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Rank() != n {
		t.Fatalf("full-rank build kept rank %d of %d", spec.Rank(), n)
	}

	for _, q := range []int{0, 7, 63, 119} {
		want, err := exact.TopK(q, n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := spec.TopK(q, n)
		if err != nil {
			t.Fatal(err)
		}
		wantScore := make(map[int]float64, n)
		for _, r := range want {
			wantScore[r.Node] = r.Score
		}
		for _, r := range got {
			w, ok := wantScore[r.Node]
			if !ok {
				t.Fatalf("query %d: spectral returned item %d the exact engine did not", q, r.Node)
			}
			if math.Abs(r.Score-w) > 1e-8 {
				t.Fatalf("query %d item %d: spectral score %.12g, exact %.12g", q, r.Node, r.Score, w)
			}
		}
		for i := 0; i < k; i++ {
			if got[i].Node != want[i].Node {
				t.Fatalf("query %d rank %d: spectral item %d, exact item %d", q, i, got[i].Node, want[i].Node)
			}
		}
	}
}

// TestBuildSpectralTruncatedRecall: in the truncated regime the engine
// must keep high recall@10 against the exact oracle on clustered data
// — the regime the rank/recall frontier in docs/SPECTRAL.md maps.
func TestBuildSpectralTruncatedRecall(t *testing.T) {
	const n, dim, k = 600, 8, 10
	pts := spectralTestPoints(n, dim, 30, 33)
	opts := Options{GraphK: 5, Alpha: 0.99, Seed: 33}

	exact, err := Build(pts, Options{GraphK: 5, Alpha: 0.99, Seed: 33, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := BuildSpectral(pts, opts, SpectralOptions{Rank: 64})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	var hits, total int
	for qi := 0; qi < 32; qi++ {
		base := pts[rng.Intn(n)]
		q := make(Vector, dim)
		for d := range q {
			q[d] = base[d] + 0.05*rng.NormFloat64()
		}
		want, err := exact.TopKVector(q, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := spec.TopKVector(q, k)
		if err != nil {
			t.Fatal(err)
		}
		in := make(map[int]bool, k)
		for _, r := range want {
			in[r.Node] = true
		}
		for _, r := range got {
			if in[r.Node] {
				hits++
			}
		}
		total += len(want)
	}
	recall := float64(hits) / float64(total)
	if recall < 0.85 {
		t.Fatalf("truncated recall@%d = %.3f, want >= 0.85", k, recall)
	}
}

// TestBuildSpectralValidation: bad input comes back as errors, never
// panics or half-built engines.
func TestBuildSpectralValidation(t *testing.T) {
	pts := spectralTestPoints(30, 4, 3, 1)
	cases := []struct {
		name string
		pts  []Vector
		opts Options
	}{
		{"too few points", pts[:1], Options{}},
		{"alpha too big", pts, Options{Alpha: 1}},
		{"alpha negative", pts, Options{Alpha: -0.5}},
		{"negative auto-compact", pts, Options{AutoCompactFraction: -1}},
		{"dim mismatch", append(append([]Vector{}, pts...), Vector{1, 2}), Options{}},
		{"non-finite", append(append([]Vector{}, pts...), Vector{1, 2, math.NaN(), 4}), Options{}},
		{"empty vectors", []Vector{{}, {}}, Options{}},
	}
	for _, tc := range cases {
		if _, err := BuildSpectral(tc.pts, tc.opts, SpectralOptions{Rank: 8}); err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
	e, err := BuildSpectral(pts, Options{Seed: 1}, SpectralOptions{Rank: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.TopK(-1, 5); err == nil {
		t.Fatal("accepted negative query id")
	}
	if _, err := e.TopK(len(pts), 5); err == nil {
		t.Fatal("accepted out-of-range query id")
	}
	if _, err := e.TopK(0, 0); err == nil {
		t.Fatal("accepted k = 0")
	}
	if _, err := e.TopKVector(Vector{1}, 5); err == nil {
		t.Fatal("accepted wrong-dimension query vector")
	}
	if _, err := e.TopKSet(nil, 5); err == nil {
		t.Fatal("accepted empty seed set")
	}
	if _, err := e.Insert(Vector{1, 2}); err == nil {
		t.Fatal("accepted wrong-dimension insert")
	}
	if _, err := e.Insert(Vector{1, 2, math.Inf(1), 4}); err == nil {
		t.Fatal("accepted non-finite insert")
	}
	if err := e.Delete(-1); err == nil {
		t.Fatal("accepted negative delete id")
	}
}

// TestSpectralRetrieverSurface: the interface-level contract the serve
// and dist layers rely on.
func TestSpectralRetrieverSurface(t *testing.T) {
	pts := spectralTestPoints(80, 5, 4, 5)
	e, err := BuildSpectral(pts, Options{Seed: 5}, SpectralOptions{Rank: 16})
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != 80 {
		t.Fatalf("Len = %d, want 80", e.Len())
	}
	if e.Exact() {
		t.Fatal("spectral engine claims exact scores")
	}
	if e.Rank() != 16 {
		t.Fatalf("Rank = %d, want 16", e.Rank())
	}
	st := e.Stats()
	if st.NumClusters != 16 || st.NumNodes != 80 || st.FactorNNZ != 80*16 {
		t.Fatalf("stats %+v", st)
	}
	if v := e.Version(); v != 1 {
		t.Fatalf("fresh Version = %d, want 1", v)
	}
	if _, _, err := e.Neighbors(0); err == nil {
		t.Fatal("Neighbors should be unavailable")
	}
	if e.IDSpace() != 80 || !e.Alive(79) || e.Alive(80) || e.Alive(-1) {
		t.Fatal("IDSpace/Alive contract")
	}
	if e.LogLen() != 0 {
		t.Fatal("spectral engine should report no delta log")
	}

	// The three query families agree through the pooled and dedicated
	// paths.
	sr := e.NewSearcher()
	a, err := sr.TopK(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.TopK(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pooled TopK diverges from dedicated at %d", i)
		}
	}
	if a[0].Node != 3 {
		t.Fatalf("self-query top hit = %d, want 3", a[0].Node)
	}
	res, info, err := e.TopKWithInfo(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	// The counters are the scan's own: at least the returned rows were
	// scored, at most every live one, and each 64-row block of the 80 base
	// rows was either entered or skipped.
	if len(res) != 10 || info.ScoresComputed < len(res) || info.ScoresComputed > e.Len() ||
		info.ClustersScanned+info.ClustersPruned != 2 {
		t.Fatalf("TopKWithInfo: %d results, info %+v", len(res), info)
	}
	// A set query with one seed matches the item query.
	c, err := e.TopKSet([]int{3}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("single-seed TopKSet diverges from TopK at %d", i)
		}
	}
	// Batch paths agree with their scalar counterparts.
	batch := e.TopKBatch([]int{3, 5}, 10, 2)
	if batch[0].Err != nil || batch[1].Err != nil {
		t.Fatal(batch[0].Err, batch[1].Err)
	}
	for i := range a {
		if batch[0].Results[i] != a[i] {
			t.Fatalf("TopKBatch diverges at %d", i)
		}
	}
	vres, err := e.TopKVector(pts[3], 10)
	if err != nil {
		t.Fatal(err)
	}
	// The dist-facing extended surface.
	wres, qvec, aff, err := e.TopKWithVector(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if wres[i] != a[i] {
			t.Fatalf("TopKWithVector diverges at %d", i)
		}
	}
	if len(qvec) != 5 || aff <= 0 {
		t.Fatalf("TopKWithVector vector/affinity: %v %g", qvec, aff)
	}
	ares, aff2, err := e.TopKVectorWithAffinity(pts[3], 10)
	if err != nil {
		t.Fatal(err)
	}
	if aff2 <= 0 {
		t.Fatalf("affinity %g for an in-distribution query", aff2)
	}
	for i := range vres {
		if ares[i] != vres[i] {
			t.Fatalf("TopKVectorWithAffinity diverges at %d", i)
		}
	}
	sres, err := e.TopKSetWeighted([]int{3, 5}, 0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	sres2, err := e.TopKSet([]int{3, 5}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sres {
		if sres[i] != sres2[i] {
			t.Fatalf("TopKSetWeighted(0.5) diverges from TopKSet at %d", i)
		}
	}
}

// TestSpectralDynamicOps: Insert is immediately searchable and ranks
// near its neighbourhood; Delete excludes; Compact folds the delta in
// and renumbers, converging to a fresh build over the live points.
func TestSpectralDynamicOps(t *testing.T) {
	pts := spectralTestPoints(200, 6, 5, 9)
	e, err := BuildSpectral(pts, Options{Seed: 9}, SpectralOptions{Rank: 24})
	if err != nil {
		t.Fatal(err)
	}

	// Insert a near-duplicate of item 10; it must be returned for a
	// query at item 10.
	dup := append(Vector(nil), pts[10]...)
	dup[0] += 0.01
	id, err := e.Insert(dup)
	if err != nil {
		t.Fatal(err)
	}
	if id != 200 {
		t.Fatalf("inserted id %d, want 200", id)
	}
	if e.Len() != 201 || e.IDSpace() != 201 {
		t.Fatalf("Len/IDSpace after insert: %d/%d", e.Len(), e.IDSpace())
	}
	res, err := e.TopK(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res {
		if r.Node == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("near-duplicate insert %d missing from TopK(10): %v", id, res)
	}
	d := e.Delta()
	if d.BaseItems != 200 || d.DeltaItems != 1 || d.Tombstones != 0 {
		t.Fatalf("Delta after insert: %+v", d)
	}

	// Delete it again: gone from results, invalid as a query.
	if err := e.Delete(id); err != nil {
		t.Fatal(err)
	}
	if e.Alive(id) {
		t.Fatal("deleted item still alive")
	}
	res, err = e.TopK(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Node == id {
			t.Fatal("deleted item still in results")
		}
	}
	if _, err := e.TopK(id, 5); err == nil {
		t.Fatal("deleted item accepted as query")
	}
	if err := e.Delete(id); err == nil {
		t.Fatal("double delete accepted")
	}

	// Compact: delta folded in, ids renumbered, state matches a fresh
	// build over the live points bit for bit.
	if err := e.Delete(5); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 199 || e.IDSpace() != 199 {
		t.Fatalf("Len/IDSpace after compact: %d/%d", e.Len(), e.IDSpace())
	}
	live := make([]Vector, 0, 199)
	for i, pt := range pts {
		if i != 5 {
			live = append(live, pt)
		}
	}
	fresh, err := BuildSpectral(live, Options{Seed: 9}, SpectralOptions{Rank: 24})
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.TopK(0, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.TopK(0, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Node != b[i].Node || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			t.Fatalf("compacted engine diverges from fresh build at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestSpectralSaveLoadRoundTrip: Save → Load answers bit-identically,
// and a second Save of the loaded engine reproduces the bytes.
func TestSpectralSaveLoadRoundTrip(t *testing.T) {
	pts := spectralTestPoints(150, 6, 5, 13)
	e, err := BuildSpectral(pts, Options{GraphK: 6, Seed: 13}, SpectralOptions{Rank: 20})
	if err != nil {
		t.Fatal(err)
	}
	// Mutate so the delta layer (inserts + tombstones) round-trips too.
	if _, err := e.Insert(append(Vector(nil), pts[3]...)); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(7); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loadedAny, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	loaded, ok := loadedAny.(*SpectralIndex)
	if !ok {
		t.Fatalf("Load returned %T, want *SpectralIndex", loadedAny)
	}
	if loaded.Len() != e.Len() || loaded.Rank() != e.Rank() || loaded.IDSpace() != e.IDSpace() {
		t.Fatalf("loaded shape: Len %d/%d Rank %d/%d IDSpace %d/%d",
			loaded.Len(), e.Len(), loaded.Rank(), e.Rank(), loaded.IDSpace(), e.IDSpace())
	}
	for _, q := range []int{0, 3, 42, 150} {
		a, err := e.TopK(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.TopK(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i].Node != b[i].Node || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
				t.Fatalf("query %d: loaded engine diverges at %d", q, i)
			}
		}
	}
	qv := append(Vector(nil), pts[50]...)
	qv[1] += 0.02
	a, err := e.TopKVector(qv, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.TopKVector(qv, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Node != b[i].Node || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			t.Fatalf("loaded engine diverges on vector query at %d", i)
		}
	}

	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-saved engine is not byte-identical")
	}

	// The recorded recipe round-trips: Compact on the loaded engine
	// matches Compact on the original bit for bit.
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Compact(); err != nil {
		t.Fatal(err)
	}
	ra, err := e.TopK(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := loaded.TopK(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ra {
		if ra[i].Node != rb[i].Node || math.Float64bits(ra[i].Score) != math.Float64bits(rb[i].Score) {
			t.Fatalf("post-compact divergence at %d", i)
		}
	}
}
