package dist_test

// The probe gate's tree (fanout.Gate) against the sweep it answers for:
// gatedSweep is fanout.Gated as it was before the tree — AffinityBound
// over every ball, then the rule — and every decision must be its.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mogul"
	"mogul/internal/fanout"
)

// gatedSweep is the probe gate by the sweep over every ball.
func gatedSweep(b *mogul.ProbeBound, q []float64, own, kth float64) bool {
	if b == nil || !(kth > 0) || len(q) != b.Dim || len(b.Radii) == 0 {
		return false
	}
	return 2*fanout.RelativeAffinity(fanout.AffinityBound(b, q), own)*b.SMax < kth
}

// sweepKth is the k-th score at which the sweep's rule flips for q: a
// kth above it gates, one at or below it does not (up to the rounding
// of the comparison).
func sweepKth(b *mogul.ProbeBound, q []float64, own float64) float64 {
	return 2 * fanout.RelativeAffinity(fanout.AffinityBound(b, q), own) * b.SMax
}

// nudge moves x by n ulps (down for n < 0).
func nudge(x float64, n int) float64 {
	dir := math.Inf(1)
	if n < 0 {
		dir, n = math.Inf(-1), -n
	}
	for ; n > 0; n-- {
		x = math.Nextafter(x, dir)
	}
	return x
}

// gateAgrees describes the first k-th score at which g and the sweep
// decide differently for q ("" when they agree): kth itself, through
// gatedSweep, and when flips is set the sweep's own flip point lhs
// (sweepKth) and scores a few ulps and 10⁻⁷ either side of it, where the
// tree's threshold sits on the nearest ball. Past its guards the sweep
// gates at a positive k exactly when lhs < k, so the flip points cost
// the oracle no further sweep.
func gateAgrees(g *fanout.Gate, b *mogul.ProbeBound, q []float64, own, kth float64, flips bool) string {
	if got, want := fanout.Gated(g, q, own, kth), gatedSweep(b, q, own, kth); got != want {
		return fmt.Sprintf("kth %v: tree %v, sweep %v", kth, got, want)
	}
	if !flips || b == nil || len(q) != b.Dim || len(b.Radii) == 0 {
		return ""
	}
	lhs := sweepKth(b, q, own)
	for _, k := range []float64{lhs, nudge(lhs, -1), nudge(lhs, 1), nudge(lhs, 3), lhs * (1 - 1e-7), lhs * (1 + 1e-7)} {
		if got, want := fanout.Gated(g, q, own, k), k > 0 && lhs < k; got != want {
			return fmt.Sprintf("kth %v (the sweep flips at %v): tree %v, sweep %v", k, lhs, got, want)
		}
	}
	return ""
}

// shardSetAgrees runs every query of six at every k through the owner,
// as a fan-out does, and holds each non-owner shard's gate to the sweep.
// It returns the pairs checked.
func shardSetAgrees(t *testing.T, label string, six *mogul.ShardedIndex, queries, ks []int, flips bool) int {
	t.Helper()
	shards := six.Shards()
	ids := oracleMap(t, six)
	bounds := make([]*mogul.ProbeBound, len(shards))
	gates := make([]*fanout.Gate, len(shards))
	for s, sh := range shards {
		bounds[s] = sh.ProbeBound()
		gates[s] = fanout.NewGate(bounds[s])
	}
	var mg fanout.Merge
	pairs := 0
	for _, query := range queries {
		loc, err := ids.Locate(query)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range ks {
			res, qvec, own, err := shards[loc.Shard].TopKWithVector(loc.Local, k)
			if err != nil {
				t.Fatal(err)
			}
			mg.Reset(len(shards))
			mg.Add(ids, loc.Shard, res, 1)
			kth := mg.Kth(loc.Shard, k)
			for s := range shards {
				if s == loc.Shard {
					continue
				}
				if msg := gateAgrees(gates[s], bounds[s], qvec, own, kth, flips); msg != "" {
					t.Fatalf("%s: query %d k=%d shard %d: %s", label, query, k, s, msg)
				}
				pairs++
			}
		}
	}
	return pairs
}

// TestGatedMatchesSweep holds the tree's decisions to the sweep's:
//   - on dist_fanout's shard set, 2000 seeded ids at k = 1, 10 and 100,
//     at the owner's k-th score;
//   - on the 3-shard small corpus, every id at k = 1 and 10, at the
//     owner's k-th score and around the sweep's own flip point;
//   - on edge cases: a NaN or ±Inf query coordinate, own = 0, kth = 0,
//     kth > 2·S_max, a σ small enough that the kernel underflows, a
//     single ball, only radius-0 balls, q inside a ball, and q just past
//     a large ball's surface, each also around its flip point.
func TestGatedMatchesSweep(t *testing.T) {
	t.Parallel()
	t.Run("dist_fanout", func(t *testing.T) {
		t.Parallel()
		six, err := distFanoutShards()
		if err != nil {
			t.Fatal(err)
		}
		pairs := shardSetAgrees(t, "dist_fanout", six, seededIDs(six.Len(), 2000, 49), []int{1, 10, 100}, false)
		t.Logf("%d query-shard pairs", pairs)
	})
	t.Run("small", func(t *testing.T) {
		t.Parallel()
		ds := smallCorpus()
		six, err := mogul.BuildSharded(ds.Points, mogul.Options{Seed: 8}, mogul.ShardOptions{Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		all := make([]int, ds.Len())
		for i := range all {
			all[i] = i
		}
		shardSetAgrees(t, "small", six, all, []int{1, 10}, true)
	})
	t.Run("edges", func(t *testing.T) {
		t.Parallel()
		grid := &mogul.ProbeBound{Dim: 2, Sigma: 0.5, SMax: 0.25,
			Centres: []float64{0, 0, 3, 0, 0, 3, 3, 3, 6, 6, -3, 2}, Radii: []float64{1, 0, 0.5, 0, 2, 0.25}}
		points := &mogul.ProbeBound{Dim: 2, Sigma: 0.5, SMax: 0.25,
			Centres: []float64{0, 0, 1, 0, 2, 0, 0, 1, 1, 1, 2, 1}, Radii: make([]float64, 6)}
		single := &mogul.ProbeBound{Dim: 3, Sigma: 1, SMax: 1, Centres: []float64{1, 2, 3}, Radii: []float64{0.5}}
		tiny := &mogul.ProbeBound{Dim: 2, Sigma: 1e-160, SMax: 0.25, Centres: grid.Centres, Radii: grid.Radii}
		large := &mogul.ProbeBound{Dim: 2, Sigma: 0x1p-40, SMax: 0.5, Centres: []float64{0, 0, 5000, 0}, Radii: []float64{1024, 3}}
		for _, c := range []struct {
			name     string
			b        *mogul.ProbeBound
			q        []float64
			own, kth float64
		}{
			{"far", grid, []float64{20, -20}, 0.9, 1e-3},
			{"between balls", grid, []float64{1.5, 1.5}, 0.9, 1e-3},
			{"NaN coordinate", grid, []float64{math.NaN(), 20}, 0.9, 1e-3},
			{"+Inf coordinate", grid, []float64{math.Inf(1), 20}, 0.9, 1e-3},
			{"-Inf coordinate", grid, []float64{20, math.Inf(-1)}, 0.9, 1e-3},
			{"own 0", grid, []float64{5, -2}, 0, 1e-3},
			{"kth 0", grid, []float64{20, -20}, 0.9, 0},
			{"kth past 2 S_max", grid, []float64{20, -20}, 0.9, 0.75},
			{"kth at 2 S_max", grid, []float64{20, -20}, 0.9, 0.5},
			{"kernel underflows", tiny, []float64{1.5, 1.5}, 0.9, 1e-300},
			{"kernel underflows, own 0", tiny, []float64{1.5, 1.5}, 0, 1e-300},
			{"single ball", single, []float64{4, 2, 3}, 0.5, 1e-2},
			{"single ball, inside", single, []float64{1.25, 2, 3}, 0.5, 1e-2},
			{"radius-0 balls", points, []float64{0.5, 0.5}, 0.8, 1e-2},
			{"radius-0 balls, on one", points, []float64{1, 1}, 0.8, 1e-2},
			{"inside a ball", grid, []float64{0.25, -0.5}, 0.9, 1e-3},
			{"on a ball's surface", grid, []float64{1, 0}, 0.9, 1e-3},
			{"past a large ball's surface", large, []float64{1024 + 0x1p-38, 0}, 0.9, 1e-3},
		} {
			if msg := gateAgrees(fanout.NewGate(c.b), c.b, c.q, c.own, c.kth, true); msg != "" {
				t.Errorf("%s: %s", c.name, msg)
			}
		}
		// The tree answers a far query alone, with fewer tests than
		// there are balls.
		if gated, tests := fanout.NewGate(grid).Work([]float64{20, -20}, 0.9, 1e-3); !gated || tests >= len(grid.Radii) {
			t.Errorf("far query: gated %v after %d tests, want gated by the tree alone", gated, tests)
		}
	})
}

// FuzzGatedMatchesSweep holds the tree to the sweep on random bounds:
// balls on a lattice of quarters (a third of radius 0), σ and S_max
// powers of two, q on the lattice or just past a power-of-two ball's
// surface (where the sweep's √d² − r cancels), own among 0, 1 and
// lattice values, and the k-th score at the sweep's own flip point
// nudged by up to ±64 ulps, or scaled by a power of two.
//
//	go test -run '^$' -fuzz 'FuzzGatedMatchesSweep$' -fuzztime 30s ./dist
func FuzzGatedMatchesSweep(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(2), int8(-1), int8(-2), uint8(0), int16(0))
	f.Add(int64(2), uint8(40), uint8(8), int8(0), int8(0), uint8(3), int16(-1))
	f.Add(int64(3), uint8(1), uint8(1), int8(-45), int8(3), uint8(6), int16(5))
	f.Add(int64(4), uint8(7), uint8(3), int8(12), int8(-1), uint8(1), int16(1))
	f.Add(int64(5), uint8(30), uint8(5), int8(-30), int8(1), uint8(14), int16(-3))
	f.Add(int64(6), uint8(3), uint8(4), int8(2), int8(0), uint8(9), int16(300))
	f.Fuzz(func(t *testing.T, seed int64, balls, dim uint8, sigmaExp, smaxExp int8, sel uint8, step int16) {
		rng := rand.New(rand.NewSource(seed))
		d, n := 1+int(dim)%8, 1+int(balls)%64
		lattice := func() float64 { return float64(rng.Intn(33)-16) / 4 }
		b := &mogul.ProbeBound{Dim: d, Sigma: math.Ldexp(1, int(sigmaExp)%48), SMax: math.Ldexp(1, int(smaxExp)%16)}
		for i := 0; i < n; i++ {
			for j := 0; j < d; j++ {
				b.Centres = append(b.Centres, lattice())
			}
			r := 0.0
			if rng.Intn(3) > 0 {
				r = float64(rng.Intn(9)) / 4
			}
			b.Radii = append(b.Radii, r)
		}
		q := make([]float64, d)
		for j := range q {
			q[j] = 2 * lattice()
		}
		if sel&4 != 0 {
			// Just past ball i's surface along the first axis, the ball
			// grown to a power of two, and a little off the axis, so that
			// the sweep's d² and √d² round.
			i := rng.Intn(n)
			r := math.Ldexp(1, rng.Intn(12))
			b.Radii[i] = r
			copy(q, b.Centres[i*d:(i+1)*d])
			q[0] += r + math.Ldexp(float64(rng.Intn(9)-2), -40-rng.Intn(8))
			if d > 1 {
				q[1] += math.Ldexp(float64(1+rng.Intn(8)), -20-rng.Intn(10))
			}
		}
		own := []float64{0, 1, float64(1+rng.Intn(64)) / 64, math.Ldexp(1, -rng.Intn(40))}[sel%4]
		kth := sweepKth(b, q, own)
		if sel&8 != 0 {
			kth = math.Ldexp(kth, int(step)%64)
		} else {
			kth = nudge(kth, int(step)%65)
		}
		g := fanout.NewGate(b)
		if got, want := fanout.Gated(g, q, own, kth), gatedSweep(b, q, own, kth); got != want {
			t.Fatalf("bound %+v q %v own %v kth %v: tree %v, sweep %v", *b, q, own, kth, got, want)
		}
	})
}

// maxGateTestsDistFanout is the tree's ceiling at dist_fanout's shape:
// box plus ball tests per gate call, k = 10, over 2000 seeded ids. It
// read 71.9 when it was recorded; the sweep measures 506–559 balls
// (528 on average).
const maxGateTestsDistFanout = 100

// TestGateWorkAtDistFanoutShape pins the work one gate call makes at
// dist_fanout's shape. Like TestProbeGateWorkAtDistFanoutShape it is the
// only test that sees a tree that prunes nothing: every decision test
// stays green on the sweep.
func TestGateWorkAtDistFanoutShape(t *testing.T) {
	t.Parallel()
	six, err := distFanoutShards()
	if err != nil {
		t.Fatal(err)
	}
	shards := six.Shards()
	ids := oracleMap(t, six)
	gates := make([]*fanout.Gate, len(shards))
	balls := make([]int, len(shards))
	for s, sh := range shards {
		b := sh.ProbeBound()
		gates[s], balls[s] = fanout.NewGate(b), len(b.Radii)
	}
	var mg fanout.Merge
	calls, tests, swept := 0, 0, 0
	for _, query := range seededIDs(six.Len(), 2000, 50) {
		loc, err := ids.Locate(query)
		if err != nil {
			t.Fatal(err)
		}
		res, qvec, own, err := shards[loc.Shard].TopKWithVector(loc.Local, 10)
		if err != nil {
			t.Fatal(err)
		}
		mg.Reset(len(shards))
		mg.Add(ids, loc.Shard, res, 1)
		kth := mg.Kth(loc.Shard, 10)
		for s := range shards {
			if s == loc.Shard {
				continue
			}
			_, n := gates[s].Work(qvec, own, kth)
			calls++
			tests += n
			swept += balls[s]
		}
	}
	perCall := float64(tests) / float64(calls)
	t.Logf("%.1f tests per gate call; the sweep measures %.1f balls", perCall, float64(swept)/float64(calls))
	if perCall > maxGateTestsDistFanout {
		t.Fatalf("%.1f tests per gate call, want at most %d", perCall, maxGateTestsDistFanout)
	}
}
