// Package kmeans implements k-means as k-means++ seeds and one Lloyd
// step.
//
// Two parts of the reproduction depend on it: the EMR baseline and
// engine select their anchor points with k-means (paper Section 2), and
// out-of-sample query handling compares against cluster mean features
// (paper Section 4.6.2).
//
// Run is k-means++ seeding, one assignment pass, one centroid update and
// the final assignment pass. Every EMR build's anchors (the engine, the
// baseline and the sharded k-means partitioner) are that one step's
// centroids. More steps do not buy EMR recall: iterating to convergence
// took emr_vec's recall@10 from 0.9609 to 0.9391 and roughly doubled its
// set-up time (ROADMAP, finding F1), so there is no loop to iterate.
//
// Neither stage measures every point against every center: seeding
// skips the distances the triangle inequality rules out, and assignment
// searches a k-d tree over the centroids, and both give the bits of the
// full sweep (see seedPlusPlus and assignAll).
package kmeans

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"mogul/internal/knn"
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
}

// Config controls a k-means run.
type Config struct {
	// K is the number of clusters; clamped to the number of points.
	K int
	// Seed makes the run deterministic.
	Seed int64
}

// Run clusters the points. It returns an error on empty input or
// non-positive K.
func Run(points []vec.Vector, cfg Config) (*Result, error) { return run(points, cfg, nil) }

// run is Run, counting its distances into w (nil counts nothing).
func run(points []vec.Vector, cfg Config, w *work) (*Result, error) {
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
	rng := rand.New(rand.NewSource(cfg.Seed))

	centroids := seedPlusPlus(points, k, rng, w)
	assign := make([]int, n)
	bestD := make([]float64, n)
	// The Lloyd step's assignment (parallel; see assignAll for why the
	// result is bit-identical to the sequential sweep).
	assignAll(points, centroids, assign, bestD, w)
	// Its update.
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
	// Final assignment against the updated centroids.
	inertia := assignAll(points, centroids, assign, bestD, w)
	return &Result{Centroids: centroids, Assign: assign, Inertia: inertia}, nil
}

// assignAll assigns every point to its nearest centroid, writing the
// winner into assign[i] and the squared distance into bestD[i], and
// returns the inertia. It answers what a sweep over every centroid with
// an ascending strict-< argmin answers, bit for bit, without computing
// most of those distances: a k-d tree over the centroids (knn.Tree)
// selects each point's nearest under (squared distance, id), whose
// first row is that argmin's — the lowest index wins a tie — and whose
// leaf scan runs the sweep's four-lane kernel, so the distance is the
// sweep's too. Each selection starts holding centroid 0, which makes
// the one case the orders differ come out as the sweep's: when that
// distance is NaN the sweep keeps centroid 0 and NaN, and a held NaN is
// never evicted; otherwise a NaN never enters. The per-point searches
// run on all CPUs over the fixed block partition, each touching only
// its own slots, and the inertia sum is reduced sequentially in point
// order afterwards, so the result (assignments AND the floating-point
// inertia) is bit-identical at any worker count. That determinism is
// what keeps k-means (and everything seeded from it: EMR anchors,
// Compact rebuilds) reproducible across machines.
func assignAll(points, centroids []vec.Vector, assign []int, bestD []float64, w *work) float64 {
	n := len(points)
	rows := vec.AliasRows(centroids, len(centroids[0]))
	tree := knn.NewTree(&rows)
	par.ForBlocks(n, 64, func(_, lo, hi int) {
		var sc knn.Scratch
		var d0 [1]float64
		for i := lo; i < hi; i++ {
			sc.Reset(1)
			d0[0] = vec.SquaredEuclidean(points[i], centroids[0])
			sc.OfferAll(nil, d0[:])
			tree.Offer(&sc, &rows, points[i], nil)
			nb := sc.Sorted()[0]
			assign[i], bestD[i] = nb.ID, nb.Dist
		}
		w.addAssign(sc.Rows())
	})
	inertia := 0.0
	for _, d := range bestD {
		inertia += d
	}
	return inertia
}

// seedRelSlack and seedAbsSlack inflate seedPlusPlus's skip test; the
// comment on skips derives why they make skipping exact.
const (
	seedRelSlack = 1e-9
	seedAbsSlack = 0x1p-1000
)

// skips reports whether a point whose nearest chosen center c_j lies at
// computed squared distance d2 can skip its distance to a new center c
// that lies at computed squared distance cc from c_j:
//
//	cc > 4·d2·slack + seedAbsSlack,  slack = 1 + seedRelSlack + (d + 4)·2⁻⁵¹,  cc finite.
//
// In exact arithmetic ‖c − c_j‖ > 2‖x − c_j‖ gives ‖x − c‖ ≥ ‖c − c_j‖ −
// ‖x − c_j‖ > ‖x − c_j‖ (Elkan, ICML 2003). The skipped distance could
// only have mattered by passing d < d2, so it suffices that its computed
// value would be at least d2. Let u = 2⁻⁵³, γ = (d + 2)·u/(1 − (d + 2)·u),
// K the kernel's computed squared distance and T the exact one.
//
//  1. K's error. Each difference rounds once (exactly, when it lands
//     among the subnormals), each square once, and the four-lane sum
//     passes each square through at most d − 1 additions, every one
//     monotone, exact among the subnormals. A square that lands among
//     the subnormals is off by at most 2⁻¹⁰⁷⁵ instead of relatively, so
//     with A = d·2⁻¹⁰⁷⁴, a finite K satisfies T(1 − γ) − A ≤ K ≤
//     T(1 + γ) + A, and K = +Inf only when the lower bound is all that
//     holds.
//  2. The test. 4·d2 is exact (or +Inf, and then nothing skips), and
//     the product and the sum round once each, or once together if the
//     compiler fuses them, so the right-hand side R is at least
//     (4·d2·slack·(1 − u) + seedAbsSlack)(1 − u).
//  3. The bound. With B = (d2 + A)/(1 − γ), step 1 gives ‖x − c_j‖² ≤ B,
//     and cc > R gives ‖c − c_j‖² ≥ (cc − A)/(1 + γ) ≥ 4B, because
//     slack·(1 − u)² ≥ (1 + γ)/(1 − γ) (slack's rounding term is more
//     than 2γ plus the 2u of the test's own roundings, and seedRelSlack
//     pays for every term of order u² and the rounding of slack itself)
//     and seedAbsSlack·(1 − u) ≥ 5A·(1 + γ)/(1 − γ) for any d < 2⁷⁰.
//     So ‖x − c‖ ≥ 2√B − √B = √B, and the computed distance is at
//     least T(1 − γ) − A ≥ B(1 − γ) − A = d2.
//  4. Non-finite values never skip: a NaN fails the comparison, a d2 of
//     +Inf makes R +Inf, and cc = +Inf is refused explicitly (step 1's
//     upper bound does not hold for it).
func skips(cc, d2, slack float64) bool {
	return cc <= math.MaxFloat64 && cc > 4*d2*slack+seedAbsSlack
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
//
// A sweep computes a point's distance to the new center only when the
// triangle inequality cannot rule it out: near[i] is the chosen center
// whose computed distance is d2[i], and cc[j] the new center's squared
// distance to center j, computed once per center, so a point whose
// near center lies far from the new one keeps its d2 without a
// distance (skips). A skipped distance could not have lowered d2, so
// d2, the partial sums and every pick keep their bits. At emr_vec's
// shape (n = 20000, d = 8, k = 1024) the sweeps compute about a quarter
// of the n·k distances.
func seedPlusPlus(points []vec.Vector, k int, rng *rand.Rand, w *work) []vec.Vector {
	n := len(points)
	centroids := make([]vec.Vector, 0, k)
	centroids = append(centroids, points[rng.Intn(n)].Clone())
	d2 := make([]float64, n)
	near := make([]int32, n)
	cc := make([]float64, k)
	slack := 1 + seedRelSlack + float64(len(points[0])+4)*0x1p-51
	size, count := par.Blocks(n, 0)
	partials := make([]float64, count)
	// sweep folds the newest center into d2 (or fills d2 when it is the
	// first center) and refreshes the per-block partial sums.
	sweep := func() {
		m := len(centroids) - 1
		c := centroids[m]
		vec.SquaredEuclideanBatch(c, centroids[:m], cc[:m])
		w.addSeed(m)
		par.ForBlocks(n, 0, func(b, lo, hi int) {
			var s float64
			computed := hi - lo
			if m == 0 {
				for i := lo; i < hi; i++ {
					d2[i] = vec.SquaredEuclidean(points[i], c)
					s += d2[i]
				}
			} else {
				for i := lo; i < hi; i++ {
					if skips(cc[near[i]], d2[i], slack) {
						computed--
					} else if d := vec.SquaredEuclidean(points[i], c); d < d2[i] {
						d2[i], near[i] = d, int32(m)
					}
					s += d2[i]
				}
			}
			partials[b] = s
			w.addSeed(computed)
		})
	}
	sweep()
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
		centroids = append(centroids, points[next].Clone())
		sweep()
	}
	return centroids
}

// work counts the distances a run computes, in seeding (the sweeps and
// the center-to-center distances) and in assignment (every pass). The
// work test and BenchmarkKMeans read it; Run counts nothing (nil).
type work struct{ seed, assign atomic.Int64 }

func (w *work) addSeed(n int) {
	if w != nil {
		w.seed.Add(int64(n))
	}
}

func (w *work) addAssign(n int) {
	if w != nil {
		w.assign.Add(int64(n))
	}
}
