package kmeans

import (
	"math/rand"
	"testing"

	"mogul/internal/vec"
)

func blobs(centers []vec.Vector, perCenter int, std float64, seed int64) []vec.Vector {
	rng := rand.New(rand.NewSource(seed))
	var pts []vec.Vector
	for _, c := range centers {
		for i := 0; i < perCenter; i++ {
			p := c.Clone()
			for j := range p {
				p[j] += rng.NormFloat64() * std
			}
			pts = append(pts, p)
		}
	}
	return pts
}

func TestSeparatedBlobsRecovered(t *testing.T) {
	centers := []vec.Vector{{0, 0}, {10, 0}, {0, 10}}
	pts := blobs(centers, 30, 0.3, 1)
	res, err := Run(pts, Config{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Every blob must map to a single k-means cluster.
	for b := 0; b < 3; b++ {
		first := res.Assign[b*30]
		for i := 0; i < 30; i++ {
			if res.Assign[b*30+i] != first {
				t.Fatalf("blob %d split across clusters", b)
			}
		}
	}
	// Inertia of correct clustering is small.
	if res.Inertia > float64(len(pts))*0.3*0.3*2*4 {
		t.Fatalf("inertia %g unexpectedly large", res.Inertia)
	}
}

func TestErrors(t *testing.T) {
	if _, err := Run(nil, Config{K: 2}); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Run([]vec.Vector{{1}}, Config{K: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
}

func TestKClampedToN(t *testing.T) {
	pts := []vec.Vector{{0}, {1}}
	res, err := Run(pts, Config{K: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Centroids) != 2 {
		t.Fatalf("K not clamped: %d centroids", len(res.Centroids))
	}
}

func TestDeterminism(t *testing.T) {
	pts := blobs([]vec.Vector{{0, 0}, {5, 5}}, 20, 0.5, 3)
	a, err := Run(pts, Config{K: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(pts, Config{K: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed produced different assignments")
		}
	}
	if a.Inertia != b.Inertia {
		t.Fatal("same seed produced different inertia")
	}
}

func TestIdenticalPoints(t *testing.T) {
	pts := make([]vec.Vector, 10)
	for i := range pts {
		pts[i] = vec.Vector{1, 1}
	}
	res, err := Run(pts, Config{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia != 0 {
		t.Fatalf("identical points inertia = %g", res.Inertia)
	}
}

func TestAssignmentsAreNearestCentroid(t *testing.T) {
	pts := blobs([]vec.Vector{{0, 0}, {8, 0}, {0, 8}, {8, 8}}, 25, 1.0, 9)
	res, err := Run(pts, Config{K: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		best := 0
		for c, cent := range res.Centroids {
			if vec.SquaredEuclidean(p, cent) < vec.SquaredEuclidean(p, res.Centroids[best]) {
				best = c
			}
		}
		if best != res.Assign[i] {
			// Allow exact distance ties only.
			d1 := vec.SquaredEuclidean(p, res.Centroids[best])
			d2 := vec.SquaredEuclidean(p, res.Centroids[res.Assign[i]])
			if d1 != d2 {
				t.Fatalf("point %d assigned to %d but nearest is %d", i, res.Assign[i], best)
			}
		}
	}
}
