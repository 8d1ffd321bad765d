package mogul

// Property tests for anchor re-seeding under distribution drift (the
// EMR auto-compact/Compact contract). An insert-heavy workload whose
// new points land far from the base build leaves the k-means anchors
// covering the wrong region — delta items attach to distant anchors
// and recall in the drifted region suffers. Compact must fully
// re-seed: it re-runs the recorded recipe (k-means included) over the
// live points, so the compacted engine matches a fresh BuildEMR over
// those points exactly, and recall in the drifted region recovers.
// These tests also pin the auto-compact accounting fix: a deleted
// delta item counts once toward the pending-work threshold, not twice.

import (
	"bytes"
	"math/rand"
	"testing"

	"mogul/internal/eval"
)

// driftFixture builds an EMR engine over base points, then inserts a
// same-sized wave of points offset far outside the base support.
// Returns the engine, the full live point list in id order, and
// out-of-sample queries targeting the drifted region.
func driftFixture(t *testing.T, opts Options, eopts EMROptions) (*EMRIndex, []Vector, []Vector) {
	t.Helper()
	// The engine's target workload (docs/EMR.md): micro-clusters of ~10
	// near-duplicates, with enough anchors for ~3 per cluster.
	base := NewMixture(MixtureConfig{N: 400, Classes: 40, Dim: 8, WithinStd: 0.25, Separation: 3.0, Seed: 11})
	moved := NewMixture(MixtureConfig{N: 400, Classes: 40, Dim: 8, WithinStd: 0.25, Separation: 3.0, Seed: 31})
	drifted := make([]Vector, len(moved.Points))
	for i, p := range moved.Points {
		q := append(Vector(nil), p...)
		for d := range q {
			q[d] += 8.0
		}
		drifted[i] = q
	}

	e, err := BuildEMR(base.Points, opts, eopts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range drifted {
		if _, err := e.Insert(p); err != nil {
			t.Fatal(err)
		}
	}

	live := append(append([]Vector(nil), base.Points...), drifted...)
	rng := rand.New(rand.NewSource(99))
	queries := make([]Vector, 32)
	for i := range queries {
		src := drifted[rng.Intn(len(drifted))]
		q := make(Vector, len(src))
		for d := range q {
			q[d] = src[d] + 0.05*rng.NormFloat64()
		}
		queries[i] = q
	}
	return e, live, queries
}

// emrRecallAt10 measures mean recall@10 of the engine against an
// exact Manifold Ranking oracle over the same points, on the given
// out-of-sample queries.
func emrRecallAt10(t *testing.T, engine *EMRIndex, pts []Vector, queries []Vector) float64 {
	t.Helper()
	exact, err := Build(pts, Options{Alpha: 0.99, Seed: 11, Exact: true, ApproximateGraph: true})
	if err != nil {
		t.Fatal(err)
	}
	var recall float64
	for _, q := range queries {
		ref, err := exact.TopKVector(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := engine.TopKVector(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		recall += eval.PAtK(eval.TopKIDs(got), eval.TopKIDs(ref))
	}
	return recall / float64(len(queries))
}

// TestEMRDriftCompactMatchesFresh: after the drifted wave doubles the
// database, Compact re-seeds the anchors over the combined support —
// the compacted engine answers exactly like a fresh BuildEMR over the
// live points, and recall in the drifted region recovers to the
// fresh-build level (at or above the pre-compact stale-anchor recall,
// and above the absolute bar).
func TestEMRDriftCompactMatchesFresh(t *testing.T) {
	opts := Options{Alpha: 0.99, Seed: 11}
	eopts := EMROptions{NumAnchors: 256, NumNearestAnchors: 8}
	e, live, queries := driftFixture(t, opts, eopts)

	recallStale := emrRecallAt10(t, e, live, queries)
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	recallFresh := emrRecallAt10(t, e, live, queries)
	t.Logf("drifted-region recall@10: stale anchors %.3f, after Compact %.3f", recallStale, recallFresh)
	if recallFresh < recallStale {
		t.Fatalf("Compact degraded drifted-region recall: %.3f -> %.3f", recallStale, recallFresh)
	}
	if recallFresh < 0.9 {
		t.Fatalf("post-Compact recall@10 = %.3f in the drifted region, want >= 0.9 (anchors not re-seeded?)", recallFresh)
	}

	// The compacted engine is indistinguishable from a fresh build over
	// the live points: same recipe, same seed, same answers to the bit.
	fresh, err := BuildEMR(live, opts, eopts)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < len(live); q += 61 {
		a, err := e.TopK(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.TopK(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "compacted vs fresh TopK after drift", a, b)
	}
	for _, qv := range queries[:8] {
		a, err := e.TopKVector(qv, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.TopKVector(qv, 10)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, "compacted vs fresh TopKVector after drift", a, b)
	}
}

// TestEMRNoDriftCompactBitIdentical: on a clean engine (no pending
// delta), Compact is a no-op — the serialized state stays
// byte-identical and the version does not move, so caches stay valid.
func TestEMRNoDriftCompactBitIdentical(t *testing.T) {
	ds := NewMixture(MixtureConfig{N: 300, Classes: 6, Dim: 8, WithinStd: 0.3, Separation: 3.0, Seed: 11})
	e, err := BuildEMR(ds.Points, Options{Alpha: 0.99, Seed: 11}, EMROptions{NumAnchors: 32, NumNearestAnchors: 6})
	if err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := e.Save(&before); err != nil {
		t.Fatal(err)
	}
	v := e.Version()
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if e.Version() != v {
		t.Fatal("no-drift Compact bumped the version")
	}
	var after bytes.Buffer
	if err := e.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("no-drift Compact changed the serialized state")
	}
}
