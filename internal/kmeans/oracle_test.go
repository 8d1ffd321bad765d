package kmeans

import (
	"math"
	"math/rand"
	"testing"

	"mogul/internal/dataset"
	"mogul/internal/par"
	"mogul/internal/vec"
)

// runSweep is Run before the tree assignment and the seeding skip,
// frozen as the oracle: every point is measured against every chosen
// center in seeding and against every centroid in each assignment pass,
// around the same one Lloyd step.
func runSweep(points []vec.Vector, cfg Config) *Result {
	n := len(points)
	k := min(cfg.K, n)
	rng := rand.New(rand.NewSource(cfg.Seed))
	centroids := seedSweep(points, k, rng)
	assign := make([]int, n)
	bestD := make([]float64, n)
	assignSweep(points, centroids, assign, bestD)
	counts := make([]int, k)
	sums := make([]vec.Vector, k)
	for c := range sums {
		sums[c] = make(vec.Vector, len(points[0]))
	}
	for i, p := range points {
		c := assign[i]
		counts[c]++
		sums[c].Add(p)
	}
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			centroids[c] = points[rng.Intn(n)].Clone()
			continue
		}
		sums[c].Scale(1 / float64(counts[c]))
		centroids[c] = sums[c]
	}
	inertia := assignSweep(points, centroids, assign, bestD)
	return &Result{Centroids: centroids, Assign: assign, Inertia: inertia}
}

// assignSweep is the frozen assignment pass: one batched distance sweep
// per point, then the ascending strict-< argmin.
func assignSweep(points, centroids []vec.Vector, assign []int, bestD []float64) float64 {
	k := len(centroids)
	par.For(len(points), 64, func(lo, hi int) {
		dist := make([]float64, k)
		for i := lo; i < hi; i++ {
			vec.SquaredEuclideanBatch(points[i], centroids, dist)
			best, bd := 0, dist[0]
			for c := 1; c < k; c++ {
				if dist[c] < bd {
					best, bd = c, dist[c]
				}
			}
			assign[i] = best
			bestD[i] = bd
		}
	})
	inertia := 0.0
	for _, d := range bestD {
		inertia += d
	}
	return inertia
}

// seedSweep is the frozen k-means++ seeding: every sweep measures every
// point against the new center.
func seedSweep(points []vec.Vector, k int, rng *rand.Rand) []vec.Vector {
	n := len(points)
	centroids := make([]vec.Vector, 0, k)
	centroids = append(centroids, points[rng.Intn(n)].Clone())
	d2 := make([]float64, n)
	size, count := par.Blocks(n, 0)
	partials := make([]float64, count)
	sweep := func(c vec.Vector, first bool) {
		par.ForBlocks(n, 0, func(b, lo, hi int) {
			var s float64
			for i := lo; i < hi; i++ {
				if d := vec.SquaredEuclidean(points[i], c); first || d < d2[i] {
					d2[i] = d
				}
				s += d2[i]
			}
			partials[b] = s
		})
	}
	sweep(centroids[0], true)
	for len(centroids) < k {
		var total float64
		for _, p := range partials {
			total += p
		}
		next := -1
		if total <= 0 {
			next = rng.Intn(n)
		} else {
			r := rng.Float64() * total
			acc := 0.0
			for b := 0; b < count && next < 0; b++ {
				if b < count-1 && acc+partials[b] < r {
					acc += partials[b]
					continue
				}
				lo, hi := b*size, min(b*size+size, n)
				inner := acc
				for i := lo; i < hi; i++ {
					inner += d2[i]
					if inner >= r {
						next = i
						break
					}
				}
				if next < 0 {
					acc += partials[b]
				}
			}
			if next < 0 {
				next = n - 1
			}
		}
		c := points[next].Clone()
		centroids = append(centroids, c)
		sweep(c, false)
	}
	return centroids
}

// sameResult fails unless got and want agree bit for bit: every centroid
// coordinate, every assignment and the inertia.
func sameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Centroids) != len(want.Centroids) {
		t.Fatalf("%s: %d centroids, want %d", label, len(got.Centroids), len(want.Centroids))
	}
	for c := range want.Centroids {
		for j := range want.Centroids[c] {
			if math.Float64bits(got.Centroids[c][j]) != math.Float64bits(want.Centroids[c][j]) {
				t.Fatalf("%s: centroid %d[%d] = %v, want %v", label, c, j, got.Centroids[c][j], want.Centroids[c][j])
			}
		}
	}
	for i := range want.Assign {
		if got.Assign[i] != want.Assign[i] {
			t.Fatalf("%s: point %d assigned to %d, want %d", label, i, got.Assign[i], want.Assign[i])
		}
	}
	if math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia) {
		t.Fatalf("%s: inertia %v, want %v", label, got.Inertia, want.Inertia)
	}
}

// emrVecPoints is the emr_vec workload's corpus: the d = 8 mixture,
// n = 20000 in 2000 classes, generator seed 1.
func emrVecPoints() []vec.Vector {
	return dataset.Mixture(dataset.MixtureConfig{
		N: 20_000, Classes: 2000, Dim: 8, WithinStd: 0.25, Separation: 3.0, Seed: 1,
	}).Points
}

// duplicated repeats each of distinct lattice points copies times, so
// distances tie at zero and chosen centers coincide.
func duplicated(distinct, copies, dim int, seed int64) []vec.Vector {
	rng := rand.New(rand.NewSource(seed))
	base := make([]vec.Vector, distinct)
	for i := range base {
		base[i] = make(vec.Vector, dim)
		for j := range base[i] {
			base[i][j] = float64(rng.Intn(5))
		}
	}
	pts := make([]vec.Vector, 0, distinct*copies)
	for c := 0; c < copies; c++ {
		for _, p := range base {
			pts = append(pts, p.Clone())
		}
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// TestRunMatchesSweep holds Run to the frozen sweep, bit for bit, on the
// shapes its callers run (emr_vec's anchors, INRIASim at d = 128) and on
// the edges of the tie rules: duplicated points, k = n, k = 1, d = 1, and
// a NaN and ±Inf coordinate, which make distances NaN and +Inf.
func TestRunMatchesSweep(t *testing.T) {
	line := make([]vec.Vector, 300)
	for i := range line {
		line[i] = vec.Vector{float64(i % 17)}
	}
	nonFinite := blobs([]vec.Vector{{0, 0, 0}, {4, 1, 0}, {1, 4, 2}}, 200, 0.7, 6)
	for i, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		nonFinite[100+150*i][i] = x
	}
	cases := []struct {
		name string
		pts  []vec.Vector
		k    int
	}{
		{"emr_vec", emrVecPoints(), 1024},
		{"inria-n4000", dataset.INRIASim(4000, 1).Points, 256},
		{"duplicated", duplicated(40, 12, 3, 2), 64},
		{"k=n", blobs([]vec.Vector{{0, 0}, {3, 1}, {1, 4}}, 40, 0.5, 3), 120},
		{"k=1", blobs([]vec.Vector{{0, 0}, {3, 1}}, 50, 0.5, 4), 1},
		{"d=1", line, 24},
		{"non-finite", nonFinite, 40},
	}
	for _, tc := range cases {
		if testing.Short() && len(tc.pts) > 5000 {
			continue
		}
		for _, seed := range []int64{0, 7} {
			cfg := Config{K: tc.k, Seed: seed}
			got, err := Run(tc.pts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, tc.name, got, runSweep(tc.pts, cfg))
		}
	}
}

// FuzzRunMatchesSweep holds Run to the frozen sweep on small inputs
// drawn from a coarse lattice, so distances tie, points and centers
// coincide, and a fuzzed byte can put a NaN or ±Inf in a coordinate. k
// runs past the tree's 16-row leaves.
func FuzzRunMatchesSweep(f *testing.F) {
	f.Add([]byte{3, 2, 5, 1, 1, 2, 2, 3, 3, 1, 2, 0, 0, 4, 4, 2, 1})
	f.Add([]byte{1, 8, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2})
	f.Add([]byte{2, 4, 9, 250, 1, 2, 3, 251, 252, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		dim := int(data[0])%4 + 1
		k := int(data[1])%40 + 1
		seed := int64(data[2])
		vals := data[3:]
		n := len(vals) / dim
		if n == 0 || n > 200 {
			return
		}
		pts := make([]vec.Vector, n)
		for i := range pts {
			pts[i] = make(vec.Vector, dim)
			for j := range pts[i] {
				switch b := vals[i*dim+j]; b {
				case 250:
					pts[i][j] = math.NaN()
				case 251:
					pts[i][j] = math.Inf(1)
				case 252:
					pts[i][j] = math.Inf(-1)
				default:
					pts[i][j] = float64(b%7) - 3
				}
			}
		}
		cfg := Config{K: k, Seed: seed}
		got, err := Run(pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "fuzz", got, runSweep(pts, cfg))
	})
}

// Distances per point at emr_vec's shape, each ceiling its value when it
// was recorded rounded up by under 1 %: seeding computes 260.6 (234.4
// in the sweeps, 26.2 center to center), where without the skip it
// computes 1050.2; an assignment pass computes 184.1 (the tree's rows,
// centroid 0's distance included), where the sweep computes 1024.
const (
	maxSeedDistsEMRVec   = 263
	maxAssignDistsEMRVec = 185
)

// TestKMeansWorkAtEMRShape pins the distances seeding and one assignment
// pass compute per point at emr_vec's shape. Both are deterministic, and
// only this test sees a bound that is merely loose: dropping the seeding
// skip or sweeping every centroid keeps every answer test green.
func TestKMeansWorkAtEMRShape(t *testing.T) {
	if testing.Short() {
		t.Skip("builds emr_vec's anchors")
	}
	pts := emrVecPoints()
	seed, assign := kmeansWork(pts, 1024)
	t.Logf("%.1f distances per point in seeding, %.1f per assignment pass", seed, assign)
	if seed > maxSeedDistsEMRVec || assign > maxAssignDistsEMRVec {
		t.Fatalf("%.1f seeding and %.1f assignment distances per point, want at most %v and %v",
			seed, assign, maxSeedDistsEMRVec, maxAssignDistsEMRVec)
	}
}

// kmeansWork runs k-means with k centroids over pts and returns the
// distances per point computed in seeding and in one assignment pass.
func kmeansWork(pts []vec.Vector, k int) (seed, assign float64) {
	var w work
	_, err := run(pts, Config{K: k}, &w)
	if err != nil {
		panic(err)
	}
	n := float64(len(pts))
	const passes = 2 // the Lloyd step's and the final one
	return float64(w.seed.Load()) / n, float64(w.assign.Load()) / n / passes
}

// BenchmarkKMeans times Run at emr_vec's shape (n = 20000, d = 8,
// k = 1024: one k-means++ seeding and two assignment passes) and reports
// the distances computed per point.
//
//	go test -run '^$' -bench 'BenchmarkKMeans' -benchtime 3x ./internal/kmeans
func BenchmarkKMeans(b *testing.B) {
	pts := emrVecPoints()
	b.Run("emr_vec", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Run(pts, Config{K: 1024}); err != nil {
				b.Fatal(err)
			}
		}
		seed, assign := kmeansWork(pts, 1024)
		b.ReportMetric(seed, "seed-dists/point")
		b.ReportMetric(assign, "assign-dists/point")
	})
}
