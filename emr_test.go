package mogul

// Tests for the EMR anchor-graph engine (emr.go). The headline
// property: over an unmutated engine, every query path agrees with the
// internal/baseline EMR implementation — same ids in the same order,
// scores within emrBaselineTol — because the engine is the baseline's
// math on serving-grade data structures, except that it multiplies by
// the explicit gram inverse where the baseline solves an LU-factored
// system. Plus: dynamic-update equivalence (Insert → Compact converges
// to a fresh build), the Retriever surface contract, and a -race
// concurrent query/mutation suite.

import (
	"math"
	"math/rand"
	"testing"

	"mogul/internal/baseline"
	"mogul/internal/dense"
)

// emrBaselineTol is the pinned relative score tolerance between the
// engine (z = M rhs through the explicit SPD inverse) and anything
// that solves the same gram system through LU factors: baseline.EMR,
// and version-1/2 container files. The system's condition number is at
// most 1/(1-alpha) = 100, so the two agree to a few hundred ulps.
const emrBaselineTol = 1e-12

// closeResults asserts the same ids in the same order with scores
// within tol relative.
func closeResults(t *testing.T, label string, got, want []Result, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Node != want[i].Node || math.Abs(got[i].Score-want[i].Score) > tol*math.Abs(want[i].Score) {
			t.Fatalf("%s: result %d is {%d, %.17g}, want {%d, %.17g} within %g relative",
				label, i, got[i].Node, got[i].Score, want[i].Node, want[i].Score, tol)
		}
	}
}

// buildEMRPair builds the engine and the baseline over the same points
// with the same recipe, so results can be compared query by query.
func buildEMRPair(t *testing.T, n, dim, p, s int, seed int64) (*EMRIndex, *baseline.EMR, []Vector) {
	t.Helper()
	ds := NewMixture(MixtureConfig{N: n, Classes: 6, Dim: dim, WithinStd: 0.4, Separation: 2.5, Seed: seed})
	e, err := BuildEMR(ds.Points, Options{Alpha: 0.99, Seed: seed}, EMROptions{NumAnchors: p, NumNearestAnchors: s})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := baseline.NewEMR(ds.Points, 0.99, baseline.EMRConfig{NumAnchors: p, NumNearestAnchors: s, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ref.PrefactorGram = true
	return e, ref, ds.Points
}

// TestEMRMatchesBaseline pins the engine to baseline.EMR — same ids in
// order, scores within emrBaselineTol — on in-sample and out-of-sample
// queries, across seeds and anchor shapes (including s == p, the
// bandwidth edge case both share through the deduped helper, where
// every row of the inverse enters a query).
func TestEMRMatchesBaseline(t *testing.T) {
	for _, tc := range []struct {
		n, dim, p, s int
		seed         int64
	}{
		{n: 200, dim: 8, p: 24, s: 4, seed: 1},
		{n: 300, dim: 6, p: 32, s: 5, seed: 2},
		{n: 150, dim: 10, p: 12, s: 12, seed: 3}, // s == p: every anchor in support
		{n: 120, dim: 4, p: 8, s: 3, seed: 4},
	} {
		e, ref, points := buildEMRPair(t, tc.n, tc.dim, tc.p, tc.s, tc.seed)
		rng := rand.New(rand.NewSource(tc.seed))
		for trial := 0; trial < 20; trial++ {
			q := rng.Intn(tc.n)
			k := 1 + rng.Intn(15)
			got, err := e.TopK(q, k)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.TopK(q, k)
			if err != nil {
				t.Fatal(err)
			}
			closeResults(t, "TopK", got, want, emrBaselineTol)
		}
		for trial := 0; trial < 20; trial++ {
			qv := append(Vector(nil), points[rng.Intn(tc.n)]...)
			for i := range qv {
				qv[i] += 0.1 * rng.NormFloat64()
			}
			k := 1 + rng.Intn(15)
			got, err := e.TopKVector(qv, k)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.TopKOutOfSample(qv, k)
			if err != nil {
				t.Fatal(err)
			}
			closeResults(t, "TopKVector", got, want, emrBaselineTol)
		}
	}
}

// TestEMRGramInverseMatchesLU: the held inverse of a real gram system
// (rebuilt here serially from the engine's own H columns) equals the
// pivoted-LU inverse to 1e-12 of its largest entry and is exactly
// symmetric — rows stand in for columns in the query path.
func TestEMRGramInverseMatchesLU(t *testing.T) {
	e, _, _ := buildEMRPair(t, 600, 8, 96, 6, 23)
	st := e.st
	g := dense.Identity(st.p)
	for i := 0; i < st.baseN; i++ {
		ids, ws := st.column(i, nil)
		for a := 0; a < st.s; a++ {
			for b := 0; b < st.s; b++ {
				g.Add(int(ids[a]), int(ids[b]), -e.alpha*ws[a]*ws[b])
			}
		}
	}
	want, err := dense.Inverse(g)
	if err != nil {
		t.Fatal(err)
	}
	var scale float64
	for _, v := range want.Data {
		scale = math.Max(scale, math.Abs(v))
	}
	m := st.gramInv
	for i := 0; i < st.p; i++ {
		for j := 0; j < st.p; j++ {
			if d := math.Abs(m.At(i, j) - want.At(i, j)); !(d <= 1e-12*scale) {
				t.Fatalf("M[%d][%d] = %.17g, LU inverse %.17g", i, j, m.At(i, j), want.At(i, j))
			}
			if m.At(i, j) != m.At(j, i) {
				t.Fatalf("M not exactly symmetric at (%d,%d)", i, j)
			}
		}
	}
}

// TestEMRSearcherMatchesPooledPath: a dedicated searcher and the
// engine-level pooled methods answer identically, and a searcher
// reused across many queries does not leak state between them.
func TestEMRSearcherMatchesPooledPath(t *testing.T) {
	e, _, points := buildEMRPair(t, 150, 6, 16, 4, 5)
	sr := e.NewSearcher()
	for q := 0; q < 30; q++ {
		a, err := sr.TopK(q, 9)
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.TopK(q, 9)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d: searcher and pooled results differ at %d", q, i)
			}
		}
		av, err := sr.TopKVector(points[q], 9)
		if err != nil {
			t.Fatal(err)
		}
		bv, err := e.TopKVector(points[q], 9)
		if err != nil {
			t.Fatal(err)
		}
		for i := range av {
			if av[i] != bv[i] {
				t.Fatalf("query %d: vector results differ at %d", q, i)
			}
		}
	}
}

// TestEMRTopKSetSingleSeed: a one-element set query carries weight 1
// and must equal the plain TopK of that seed.
func TestEMRTopKSetSingleSeed(t *testing.T) {
	e, _, _ := buildEMRPair(t, 120, 6, 16, 4, 6)
	for _, q := range []int{0, 17, 119} {
		a, err := e.TopK(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.TopKSet([]int{q}, 8)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "TopKSet single seed", a, b)
	}
	// Duplicate seeds accumulate weight instead of corrupting the scan
	// cursor.
	if _, err := e.TopKSet([]int{3, 3, 7}, 8); err != nil {
		t.Fatal(err)
	}
}

// TestEMRInsertCompactEqualsFresh: the dynamic arc converges — after
// any mix of inserts and deletes, Compact produces an engine
// bit-identical to a fresh BuildEMR over the live points in id order.
func TestEMRInsertCompactEqualsFresh(t *testing.T) {
	ds := NewMixture(MixtureConfig{N: 260, Classes: 6, Dim: 8, WithinStd: 0.4, Separation: 2.5, Seed: 11})
	opts := Options{Alpha: 0.99, Seed: 11}
	eopts := EMROptions{NumAnchors: 24, NumNearestAnchors: 4}
	e, err := BuildEMR(ds.Points[:200], opts, eopts)
	if err != nil {
		t.Fatal(err)
	}
	v0 := e.Version()
	for _, pt := range ds.Points[200:] {
		if _, err := e.Insert(pt); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int{3, 77, 199, 205} {
		if err := e.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if e.Version() == v0 {
		t.Fatal("mutations did not advance the version")
	}
	d := e.Delta()
	if d.BaseItems != 200 || d.DeltaItems != 60-1 || d.Tombstones != 4 {
		t.Fatalf("delta = %+v", d)
	}

	// The live points in id order are exactly what Compact snapshots.
	var live []Vector
	for id := 0; id < 260; id++ {
		if e.Alive(id) {
			live = append(live, ds.Points[id])
		}
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	fresh, err := BuildEMR(live, opts, eopts)
	if err != nil {
		t.Fatal(err)
	}
	if e.Len() != fresh.Len() || e.IDSpace() != len(live) {
		t.Fatalf("compacted len=%d idspace=%d, fresh len=%d", e.Len(), e.IDSpace(), fresh.Len())
	}
	for q := 0; q < e.Len(); q += 7 {
		a, err := e.TopK(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.TopK(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "compacted vs fresh TopK", a, b)
	}
	qv := append(Vector(nil), live[5]...)
	qv[0] += 0.05
	a, _ := e.TopKVector(qv, 10)
	b, _ := fresh.TopKVector(qv, 10)
	sameResults(t, "compacted vs fresh TopKVector", a, b)

	// Compacting an already-clean engine is a no-op and does not
	// invalidate caches (version unchanged).
	vBefore := e.Version()
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if e.Version() != vBefore {
		t.Fatal("no-op Compact bumped the version")
	}
}

// TestEMRBatch: the batch entry point answers per-item, record
// per-item failures without failing the batch, and agree with the
// sequential paths.
func TestEMRBatch(t *testing.T) {
	e, _, _ := buildEMRPair(t, 90, 6, 12, 4, 17)
	queries := []int{0, 5, -3, 88, 9000}
	out := e.TopKBatch(queries, 6, 4)
	if len(out) != len(queries) {
		t.Fatalf("%d batch results", len(out))
	}
	for i, q := range queries {
		if out[i].Query != q {
			t.Fatalf("result %d carries query %d, want %d", i, out[i].Query, q)
		}
		if q < 0 || q >= 90 {
			if out[i].Err == nil {
				t.Fatalf("bad query %d accepted", q)
			}
			continue
		}
		if out[i].Err != nil {
			t.Fatal(out[i].Err)
		}
		want, _ := e.TopK(q, 6)
		sameResults(t, "batch vs sequential", out[i].Results, want)
	}
}

// TestEMRRetrieverSurface: the introspection half of the Retriever
// contract, plus the interface satisfaction itself (compile-time
// asserted in emr.go, behaviorally spot-checked here).
func TestEMRRetrieverSurface(t *testing.T) {
	var r Retriever
	e, _, _ := buildEMRPair(t, 100, 6, 16, 4, 19)
	r = e
	if r.Len() != 100 {
		t.Fatalf("Len = %d", r.Len())
	}
	if r.Exact() {
		t.Fatal("EMR claims exact scores")
	}
	st := r.Stats()
	if st.NumNodes != 100 || st.NumClusters != 16 || st.FactorNNZ != 16*16 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ClusterTime <= 0 || st.FactorTime <= 0 {
		t.Fatalf("build timings missing: %+v", st)
	}
	if r.Version() == 0 {
		t.Fatal("version must start at 1")
	}
	q := r.NewQuerier()
	if _, err := q.TopK(0, 5); err != nil {
		t.Fatal(err)
	}
	// The counters are the scan's own: every anchor cell is entered or
	// skipped, and only rows of entered cells are scored.
	_, info, err := r.TopKWithInfo(0, 5)
	if err != nil || info.ClustersScanned+info.ClustersPruned != 16 || info.ClustersScanned < 1 || info.ScoresComputed < 5 || info.ScoresComputed > 100 {
		t.Fatalf("info = %+v, err = %v", info, err)
	}
}
