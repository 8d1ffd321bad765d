package knn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	"mogul/internal/dataset"
	"mogul/internal/vec"
)

// exactSqDist returns ‖q − p‖² rounded down to a float64: every
// difference, square and sum is exact at the precision used, which
// spans the whole float64 exponent range twice over.
func exactSqDist(q, p []float64) float64 {
	const prec = 4600
	sum := new(big.Float).SetPrec(prec)
	for j := range q {
		d := new(big.Float).SetPrec(prec).Sub(big.NewFloat(q[j]).SetPrec(prec), big.NewFloat(p[j]))
		sum.Add(sum, d.Mul(d, d))
	}
	f, acc := sum.Float64()
	if acc == big.Above {
		f = math.Nextafter(f, math.Inf(-1))
	}
	return f
}

// screenBound returns whether the screen rules p out for q against the
// threshold th, with the norms, fused dot and error terms the graph
// build computes.
func screenBound(q, p []float64, th float64) bool {
	var g [1]float64
	vec.DotRowsFMA(q, p, []int{0}, g[:])
	rel, abs := screenTerms(len(q))
	return screens(vec.Dot(q, q), vec.Dot(p, p), g[0], rel, abs, th)
}

// screenPairs draws query-row pairs of width d of the kinds the bound
// must hold for: equal rows, rows one ulp apart, rows a relative 1e-16
// to 1e-4 apart (where the norm expansion cancels), unrelated rows,
// subnormal-only rows, rows whose products underflow, and rows that mix
// ±1e150 with subnormals.
func screenPairs(rng *rand.Rand, d int) (names []string, pairs [][2][]float64) {
	add := func(name string, q, p []float64) {
		names = append(names, name)
		pairs = append(pairs, [2][]float64{q, p})
	}
	gauss := func(scale float64) []float64 {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.NormFloat64() * scale
		}
		return v
	}
	nudge := func(q []float64, f func(j int, x float64) float64) []float64 {
		p := make([]float64, d)
		for j, x := range q {
			p[j] = f(j, x)
		}
		return p
	}
	q := gauss(1)
	add("equal", q, nudge(q, func(_ int, x float64) float64 { return x }))
	add("one ulp apart", q, nudge(q, func(j int, x float64) float64 {
		if j%3 == 0 {
			return math.Nextafter(x, math.Inf(1))
		}
		return x
	}))
	for _, eps := range []float64{1e-16, 1e-12, 1e-8, 1e-4} {
		add("close", q, nudge(q, func(_ int, x float64) float64 { return x * (1 + eps*rng.NormFloat64()) }))
	}
	add("unrelated", gauss(3), gauss(1e-3))
	sub := func() []float64 {
		return nudge(q, func(_ int, _ float64) float64 {
			return float64(rng.Intn(1<<20)-1<<19) * math.SmallestNonzeroFloat64
		})
	}
	s := sub()
	add("subnormal", s, sub())
	add("subnormal equal", s, nudge(s, func(_ int, x float64) float64 { return x }))
	mixed := func() []float64 {
		return nudge(q, func(j int, x float64) float64 {
			if j%2 == 0 {
				return math.Copysign(1e150, x) * (1 + rng.Float64())
			}
			return x * 0x1p-1060
		})
	}
	// Products at the underflow threshold round by up to half a
	// subnormal each, which only the absolute term covers.
	edge := func(p []float64) []float64 {
		return nudge(q, func(j int, _ float64) float64 {
			if p != nil && rng.Intn(2) == 0 {
				return p[j]
			}
			return (1 + 3*rng.Float64()) * 0x1p-537
		})
	}
	e := edge(nil)
	add("products at the underflow threshold", e, edge(e))
	m := mixed()
	add("1e150 and subnormal", m, mixed())
	add("1e150 and subnormal, one ulp", m, nudge(m, func(j int, x float64) float64 {
		if j == d-1 {
			return math.Nextafter(x, 0)
		}
		return x
	}))
	huge := gauss(1e155)
	add("norms past overflow", huge, gauss(1e155))
	return names, pairs
}

// TestScreenBoundHolds holds the leaf screen's bound b to the exact
// squared distance T, b ≤ T, for widths 4 to 516 and every kind of
// screenPairs: the screen rules p out (b > th) against th just below T
// never. That is stronger than what prunes needs of a bound, b ≤ T·slack.
// A NaN bound, which overflowing norms give, never rules a row out; nor
// does any row with a NaN or ±Inf coordinate, whatever th.
func TestScreenBoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	widths := []int{4, 5, 6, 7, 8, 31, 32, 33, 63, 127, 128, 129, 130, 131, 255, 511, 512, 513, 514, 515, 516}
	for _, d := range widths {
		for trial := 0; trial < 16; trial++ {
			names, pairs := screenPairs(rng, d)
			for i, pr := range pairs {
				q, p := pr[0], pr[1]
				T := exactSqDist(q, p)
				if screenBound(q, p, T) || screenBound(p, q, T) {
					t.Fatalf("d=%d %s: screened against th = T = %g", d, names[i], T)
				}
			}
		}
		q := make([]float64, d)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := append([]float64(nil), q...)
			p[rng.Intn(d)] = bad
			for _, th := range []float64{treeAbsSlack, 1, math.MaxFloat64} {
				if screenBound(q, p, th) || screenBound(p, q, th) {
					t.Fatalf("d=%d: a row with %g screened against th = %g", d, bad, th)
				}
			}
		}
	}
}

// TestScreenedAllKNNKeepsBits pins the graph build's all-points search
// at graph_id's shape, INRIASim at d = 128 (n = 3000, two corpus seeds),
// to the exact scan: at GOMAXPROCS 1 and 2 its k = 5 lists carry the ids
// and distance bits of the brute-force scan, and hash (FNV-64a over each
// list's ids and distance bits) to the value the search had before the
// leaf screen, when every row it scanned was an exact distance.
func TestScreenedAllKNNKeepsBits(t *testing.T) {
	for _, c := range []struct {
		seed int64
		hash uint64
	}{{1, 0x5a1a7a8c7d575922}, {7, 0xaab674f3c304c51c}} {
		pts := dataset.INRIASim(3000, c.seed).Points
		want := AllKNN(pts, NewBruteForce(pts), 5)
		for _, procs := range []int{1, 2} {
			prev := runtime.GOMAXPROCS(procs)
			got := AllKNN(pts, searchTree(pts), 5)
			runtime.GOMAXPROCS(prev)
			h := fnv.New64a()
			var buf [16]byte
			for i, list := range got {
				if err := sameNeighbors(list, want[i]); err != nil {
					t.Fatalf("seed %d GOMAXPROCS=%d point %d: %v", c.seed, procs, i, err)
				}
				for _, nb := range list {
					binary.LittleEndian.PutUint64(buf[:8], uint64(nb.ID))
					binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(nb.Dist))
					h.Write(buf[:])
				}
			}
			if h.Sum64() != c.hash {
				t.Fatalf("seed %d GOMAXPROCS=%d: lists hash to %#x, want %#x", c.seed, procs, h.Sum64(), c.hash)
			}
		}
	}
}
