// Package kmeans implements Lloyd's algorithm with k-means++ seeding.
//
// Two parts of the reproduction depend on it: the EMR baseline and
// engine select their anchor points with k-means (paper Section 2), and
// out-of-sample query handling compares against cluster mean features
// (paper Section 4.6.2).
package kmeans

import (
	"fmt"
	"math"
	"math/rand"

	"mogul/internal/par"
	"mogul/internal/vec"
)

// Result holds the outcome of a k-means run.
type Result struct {
	// Centroids are the k cluster centers.
	Centroids []vec.Vector
	// Assign maps each input point to its centroid index.
	Assign []int
	// Inertia is the final sum of squared distances to assigned centers.
	Inertia float64
	// Iterations is the number of Lloyd iterations executed.
	Iterations int
}

// Config controls a k-means run.
type Config struct {
	// K is the number of clusters; clamped to the number of points.
	K int
	// MaxIter bounds Lloyd iterations (default 25).
	MaxIter int
	// Tol stops early when relative inertia improvement drops below it
	// (default 1e-4).
	Tol float64
	// Seed makes the run deterministic.
	Seed int64
}

// Run clusters the points. It returns an error on empty input or
// non-positive K.
func Run(points []vec.Vector, cfg Config) (*Result, error) {
	n := len(points)
	if n == 0 {
		return nil, fmt.Errorf("kmeans: no points")
	}
	if cfg.K <= 0 {
		return nil, fmt.Errorf("kmeans: K must be positive, got %d", cfg.K)
	}
	k := cfg.K
	if k > n {
		k = n
	}
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		maxIter = 25
	}
	tol := cfg.Tol
	if tol <= 0 {
		tol = 1e-4
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	centroids := seedPlusPlus(points, k, rng)
	assign := make([]int, n)
	bestD := make([]float64, n)
	prevInertia := math.Inf(1)
	iters := 0
	for ; iters < maxIter; iters++ {
		// Assignment step (parallel; see assignAll for why the result
		// is bit-identical to the sequential loop).
		inertia := assignAll(points, centroids, assign, bestD)
		// Update step.
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
				// Re-seed an empty cluster at a random point; keeps K
				// stable, which EMR requires (fixed anchor count d).
				centroids[c] = points[rng.Intn(n)].Clone()
				continue
			}
			sums[c].Scale(1 / float64(counts[c]))
			centroids[c] = sums[c]
		}
		if prevInertia-inertia <= tol*math.Max(1, prevInertia) {
			prevInertia = inertia
			iters++
			break
		}
		prevInertia = inertia
	}
	// Final assignment against the last centroid update.
	inertia := assignAll(points, centroids, assign, bestD)
	return &Result{Centroids: centroids, Assign: assign, Inertia: inertia, Iterations: iters}, nil
}

// assignAll assigns every point to its nearest centroid, writing the
// winner into assign[i] and the squared distance into bestD[i], and
// returns the inertia. The per-point scans run on all CPUs — each
// point's nearest-centroid search is independent, touches only its own
// slots, and performs the identical comparisons in the identical order
// as the sequential loop — while the inertia sum is reduced
// sequentially in point order afterwards, so the result (assignments
// AND the floating-point inertia) is bit-identical to the sequential
// version at any worker count. That determinism is what keeps k-means
// (and everything seeded from it: EMR anchors, Compact rebuilds)
// reproducible across machines.
func assignAll(points, centroids []vec.Vector, assign []int, bestD []float64) float64 {
	n := len(points)
	k := len(centroids)
	par.For(n, 64, func(lo, hi int) {
		// One batched distance sweep per point: the same
		// vec.SquaredEuclidean values the fused loop would compute,
		// followed by the same ascending strict-< argmin, so winner and
		// distance are bit-identical to the sequential scan.
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

// seedPlusPlus picks k initial centers with the k-means++ rule:
// the first uniformly, each next with probability proportional to the
// squared distance from the nearest chosen center.
//
// The O(n) distance sweep per center runs on the par pool: each sweep
// folds the chosen center into d2 and records per-block partial sums
// over the fixed block partition, and the weighted pick walks blocks
// (then elements within the chosen block) against those partials. The
// rng call sequence and every float it consumes depend only on the
// fixed block shape, so seeding is bit-identical at any GOMAXPROCS.
func seedPlusPlus(points []vec.Vector, k int, rng *rand.Rand) []vec.Vector {
	n := len(points)
	centroids := make([]vec.Vector, 0, k)
	centroids = append(centroids, points[rng.Intn(n)].Clone())
	d2 := make([]float64, n)
	size, count := par.Blocks(n, 0)
	partials := make([]float64, count)
	// sweep folds center c into d2 (or fills d2 when c is the first
	// center) and refreshes the per-block partial sums.
	sweep := func(c vec.Vector, first bool) {
		par.ForBlocks(n, 0, func(b, lo, hi int) {
			var s float64
			if first {
				for i := lo; i < hi; i++ {
					d2[i] = vec.SquaredEuclidean(points[i], c)
					s += d2[i]
				}
			} else {
				for i := lo; i < hi; i++ {
					if d := vec.SquaredEuclidean(points[i], c); d < d2[i] {
						d2[i] = d
					}
					s += d2[i]
				}
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
			// All points coincide with chosen centers; fall back to
			// uniform choice so we still return k centers.
			next = rng.Intn(n)
		} else {
			r := rng.Float64() * total
			acc := 0.0
			for b := 0; b < count && next < 0; b++ {
				if b < count-1 && acc+partials[b] < r {
					acc += partials[b]
					continue
				}
				lo, hi := b*size, b*size+size
				if hi > n {
					hi = n
				}
				inner := acc
				for i := lo; i < hi; i++ {
					inner += d2[i]
					if inner >= r {
						next = i
						break
					}
				}
				if next < 0 {
					// The elementwise sum of this block rounded below its
					// partial; carry the partial forward and keep walking.
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
