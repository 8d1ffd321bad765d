package baseline

// Regression tests for the two latent EMR bugs fixed alongside the
// engine promotion: the unsynchronized cachedGram write (now a
// sync.Once — run this file under -race) and the s == d bandwidth
// degeneracy in the Nadaraya-Watson weighting (now a scaled farthest
// distance, shared by NewEMR and TopKOutOfSample through one helper).

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"mogul/internal/knn"
	"mogul/internal/vec"
)

func emrTestPoints(n, dim int, seed int64) []vec.Vector {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]vec.Vector, n)
	for i := range pts {
		v := make(vec.Vector, dim)
		for j := range v {
			v[j] = rng.NormFloat64() + 3*float64(i%4)
		}
		pts[i] = v
	}
	return pts
}

// TestEMRConcurrentPrefactoredQueries queries one prefactored EMR from
// many goroutines at once. Before the sync.Once fix, the first queries
// raced on the lazily written cachedGram pointer; under -race this
// test is the regression guard.
func TestEMRConcurrentPrefactoredQueries(t *testing.T) {
	pts := emrTestPoints(200, 6, 31)
	e, err := NewEMR(pts, 0.99, EMRConfig{NumAnchors: 16, NumNearestAnchors: 4, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	e.PrefactorGram = true

	want, err := e.TopK(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := 0; q < 50; q++ {
				res, err := e.TopK((w*53+q)%200, 10)
				if err != nil {
					errs <- err
					return
				}
				if _, err := e.TopKOutOfSample(pts[(w+q)%200], 5); err != nil {
					errs <- err
					return
				}
				if q == 0 && w%3 == 0 {
					// Cross-check one known answer mid-storm.
					got, err := e.TopK(0, 10)
					if err != nil {
						errs <- err
						return
					}
					for i := range got {
						if got[i] != want[i] {
							t.Errorf("concurrent TopK diverged at %d", i)
							return
						}
					}
				}
				_ = res
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestAnchorWeightsFarthestBandwidth: when s equals the anchor count
// there is no (s+1)-th distance; the fixed bandwidth is the farthest
// support distance scaled by knn.FarthestBandwidthScale, so the farthest
// anchor keeps a genuine kernel weight instead of collapsing to the
// 1e-12 tie clamp.
func TestAnchorWeightsFarthestBandwidth(t *testing.T) {
	anchors := []vec.Vector{{0, 0}, {1, 0}, {0, 2}}
	q := vec.Vector{0.1, 0.1}
	var sc knn.Scratch
	val := make([]float64, 3)
	mass := knn.AnchorWeights(&sc, q, anchors, 3, make([]int32, 3), val)
	var sum float64
	for t2, w := range val {
		if w <= 1e-9 {
			t.Fatalf("weight %d collapsed to the tie clamp: %g", t2, w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("weights sum to %g", sum)
	}
	if mass <= 0 {
		t.Fatalf("kernel mass %g", mass)
	}
	// The farthest in-support anchor sits at u = 1/FarthestBandwidthScale,
	// giving the documented Epanechnikov weight before normalization.
	dists := make([]float64, len(anchors))
	for a, c := range anchors {
		dists[a] = math.Sqrt(vec.SquaredEuclidean(q, c))
	}
	far := 0.0
	for _, d := range dists {
		far = math.Max(far, d)
	}
	u := far / (far * knn.FarthestBandwidthScale)
	wantRaw := 0.75 * (1 - u*u)
	if wantRaw <= 0.4 {
		t.Fatalf("sanity: expected a substantial farthest weight, got %g", wantRaw)
	}

	// s == d via the full constructor: every point still carries s
	// positive weights and queries succeed.
	pts := emrTestPoints(60, 3, 7)
	e, err := NewEMR(pts, 0.9, EMRConfig{NumAnchors: 6, NumNearestAnchors: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.TopK(0, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := e.TopKOutOfSample(pts[1], 5); err != nil {
		t.Fatal(err)
	}
}

// TestAnchorWeightsBandwidthUnchangedBelowSupport: for s < d the
// helper reproduces the original bandwidth rule (distance to the
// (s+1)-th anchor) — the refactor changed behavior only in the
// degenerate s == d case.
func TestAnchorWeightsBandwidthUnchangedBelowSupport(t *testing.T) {
	anchors := []vec.Vector{{0}, {1}, {2}, {10}}
	q := vec.Vector{0}
	var sc knn.Scratch
	idx, val := make([]int32, 2), make([]float64, 2)
	knn.AnchorWeights(&sc, q, anchors, 2, idx, val)
	if idx[0] != 0 || idx[1] != 1 {
		t.Fatalf("support = %v", idx)
	}
	// bandwidth = dist to anchor 2 (= 2): u = {0, 0.5},
	// raw = {0.75, 0.5625}, normalized below.
	raw0, raw1 := 0.75*(1-0.0), 0.75*(1-0.25)
	want0 := raw0 / (raw0 + raw1)
	want1 := raw1 / (raw0 + raw1)
	if val[0] != want0 || val[1] != want1 {
		t.Fatalf("weights = %v, want [%g %g]", val, want0, want1)
	}
}
