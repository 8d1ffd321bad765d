package knn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mogul/internal/vec"
)

// nearestAnchorWeightsOracle is the anchor attach as it was written
// before it selected through Scratch: one batched squared-distance sweep
// over every anchor, its own bounded insertion under (squared distance,
// id), then the same weighting. AnchorWeights must match it bit for bit.
func nearestAnchorWeightsOracle(p vec.Vector, anchors []vec.Vector, s int) (idx []int32, val []float64, mass float64) {
	type anchorDist struct {
		id int
		d  float64
	}
	d := len(anchors)
	s = min(s, d)
	m := min(s+1, d)
	dist := make([]float64, d)
	vec.SquaredEuclideanBatch(p, anchors, dist)
	sel := make([]anchorDist, 0, m)
	for a, d2 := range dist {
		if len(sel) == m {
			if d2 >= sel[m-1].d {
				continue
			}
			sel = sel[:m-1]
		}
		pos := len(sel)
		sel = append(sel, anchorDist{})
		for pos > 0 && sel[pos-1].d > d2 {
			sel[pos] = sel[pos-1]
			pos--
		}
		sel[pos] = anchorDist{id: a, d: d2}
	}
	for t := range sel {
		sel[t].d = math.Sqrt(sel[t].d)
	}
	var bandwidth float64
	if s < d {
		bandwidth = sel[s].d
	} else {
		bandwidth = sel[s-1].d * FarthestBandwidthScale
	}
	if bandwidth == 0 {
		bandwidth = 1
	}
	for t := 0; t < s; t++ {
		u := sel[t].d / bandwidth
		w := 0.75 * (1 - u*u)
		if w <= 0 {
			w = 1e-12
		}
		idx = append(idx, int32(sel[t].id))
		val = append(val, w)
		mass += w
	}
	for t := range val {
		val[t] /= mass
	}
	return idx, val, mass
}

// FuzzAnchorWeights holds AnchorWeights to the sweep it replaced on
// fuzzed anchor sets — lattice ties, duplicates, subnormal and huge
// coordinates — for every anchor as the point, one decoded point, and
// s from 1 to past the anchor count.
func FuzzAnchorWeights(f *testing.F) {
	f.Add([]byte{2, 10, 18, 26, 34, 42}, uint8(60), uint8(2), uint8(5))
	f.Add([]byte{0, 1, 4, 8, 2, 10, 0}, uint8(40), uint8(3), uint8(7))
	f.Add([]byte{3, 11, 19, 5, 13, 21, 4, 12}, uint8(80), uint8(5), uint8(3))
	f.Add([]byte{6, 14, 22, 30, 38, 46, 54, 62, 70}, uint8(100), uint8(8), uint8(24))
	f.Add([]byte{}, uint8(5), uint8(1), uint8(9)) // all zero: every distance ties
	f.Fuzz(func(t *testing.T, data []byte, nb, db, sb uint8) {
		n := 1 + int(nb)%120
		d := 1 + int(db)%24
		s := 1 + int(sb)%(n+2)
		pts := fuzzPoints(data, n, d, false)
		queries := append(slices.Clone(pts), fuzzPoints(append([]byte{1}, data...), 1, d, false)[0])
		var sc Scratch
		for qi, q := range queries {
			wantIdx, wantVal, wantMass := nearestAnchorWeightsOracle(q, pts, s)
			idx, val := make([]int32, len(wantIdx)), make([]float64, len(wantVal))
			mass := AnchorWeights(&sc, q, pts, s, idx, val)
			if !slices.Equal(idx, wantIdx) {
				t.Fatalf("n=%d d=%d s=%d query %d: anchors %v, oracle %v", n, d, s, qi, idx, wantIdx)
			}
			for i := range val {
				if math.Float64bits(val[i]) != math.Float64bits(wantVal[i]) {
					t.Fatalf("n=%d d=%d s=%d query %d: weight %d is %v, oracle %v", n, d, s, qi, i, val[i], wantVal[i])
				}
			}
			if math.Float64bits(mass) != math.Float64bits(wantMass) {
				t.Fatalf("n=%d d=%d s=%d query %d: mass %v, oracle %v", n, d, s, qi, mass, wantMass)
			}
		}
		if err := carriedMatchesSweep(queries, pts, s, 1); err != nil {
			t.Fatalf("n=%d d=%d s=%d: %v", n, d, s, err)
		}
	})
}

// carriedMatchesSweep attaches points to anchors through attachAll, which
// carries each point's selection to the next within a block of at least
// minBlock points, and through AnchorWeights one point at a time, and
// reports the first anchor id or weight bit that differs.
func carriedMatchesSweep(points, anchors []vec.Vector, s, minBlock int) error {
	n := len(points)
	s = min(s, len(anchors))
	hIdx, hVal := make([]int32, n*s), make([]float64, n*s)
	attachAll(points, anchors, s, minBlock, hIdx, hVal, make([]float64, len(anchors)))
	var sc Scratch
	idx, val := make([]int32, s), make([]float64, s)
	for i, p := range points {
		AnchorWeights(&sc, p, anchors, s, idx, val)
		for t := range idx {
			if hIdx[i*s+t] != idx[t] || math.Float64bits(hVal[i*s+t]) != math.Float64bits(val[t]) {
				return fmt.Errorf("point %d support %d: carried (%d, %v), swept (%d, %v)",
					i, t, hIdx[i*s+t], hVal[i*s+t], idx[t], val[t])
			}
		}
	}
	return nil
}

// TestAnchorGraphCarriedBoundMatchesSweep holds the build's attach, which
// starts each point's selection at the previous point's anchors, to
// AnchorWeights point by point, bit for bit, at three block shapes (one
// block, and blocks of at least 1 and 16 points): on a class-ordered
// corpus, where the carried bound is tight, a shuffled one, where it is
// loose, duplicated points and anchors, where distances tie and the id
// decides, and a corpus holding NaN and ±Inf, which never carries. s runs
// to p − 1 (the bandwidth is the p-th distance) and p (no bound prunes).
func TestAnchorGraphCarriedBoundMatchesSweep(t *testing.T) {
	ordered := mixture8(3000)
	shuffled := slices.Clone(ordered)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	var dup []vec.Vector
	for _, p := range ordered[:1000] {
		dup = append(dup, p, p, p)
	}
	nonFinite := slices.Clone(ordered[:1000])
	for i := 5; i < len(nonFinite); i += 97 {
		p := slices.Clone(nonFinite[i])
		p[i%8] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[i%3]
		nonFinite[i] = p
	}
	anchorsOf := func(pts []vec.Vector, p int) []vec.Vector {
		a := make([]vec.Vector, p)
		for i := range a {
			a[i] = pts[i*len(pts)/p]
		}
		return a
	}
	infAnchors := anchorsOf(ordered, 64)
	infAnchors[7] = vec.Vector{math.Inf(1), 0, 0, 0, 0, 0, 0, 0}
	// A NaN row offered after the unbounded selection is full cannot
	// enter it, but enters a bounded one that is not full yet and stays.
	nanAnchors := anchorsOf(ordered, 128)
	nanAnchors[100] = vec.Vector{0, 0, 0, math.NaN(), 0, 0, 0, 0}
	corpora := []struct {
		name    string
		points  []vec.Vector
		anchors []vec.Vector
	}{
		{"ordered", ordered, anchorsOf(shuffled, 128)},
		{"shuffled", shuffled, anchorsOf(shuffled, 128)},
		{"duplicated", dup, append(anchorsOf(dup, 48), anchorsOf(dup, 48)...)},
		{"non-finite", nonFinite, anchorsOf(ordered, 64)},
		{"infinite-anchor", ordered[:1000], infAnchors},
		{"nan-anchor", ordered[:1000], nanAnchors},
	}
	for _, c := range corpora {
		p := len(c.anchors)
		for _, s := range []int{24, p - 1, p} {
			for _, minBlock := range []int{1, 16, len(c.points)} {
				if err := carriedMatchesSweep(c.points, c.anchors, s, minBlock); err != nil {
					t.Fatalf("%s s=%d minBlock=%d: %v", c.name, s, minBlock, err)
				}
			}
		}
	}
}

// FuzzTreeOffer holds an open selection through the tree to a full sort
// of the live rows: float64 and float32 storage, a tombstone mask, and
// rows past the ones the tree covers, which it must leave alone. This is
// how the spectral engine attaches.
func FuzzTreeOffer(f *testing.F) {
	f.Add([]byte{2, 10, 18, 26, 34, 42}, uint8(60), uint8(2), uint8(5), uint8(3), false)
	f.Add([]byte{0, 1, 4, 8, 2, 10, 0}, uint8(40), uint8(3), uint8(7), uint8(2), true)
	f.Add([]byte{6, 14, 22, 30, 38, 46, 54, 62, 70}, uint8(200), uint8(8), uint8(10), uint8(5), true)
	f.Add([]byte{7, 15, 23, 31, 6, 14, 255, 128}, uint8(120), uint8(17), uint8(30), uint8(1), false)
	f.Add([]byte("07000000"), uint8(40), uint8(3), uint8(7), uint8(2), true) // ±1e150 narrowed
	f.Fuzz(func(t *testing.T, data []byte, nb, db, kb, deadEvery uint8, f32 bool) {
		n := 1 + int(nb)%200
		d := 1 + int(db)%40
		k := 1 + int(kb)%(n+2)
		base := n - n/4 // the rest stand for an engine's delta rows
		pts := fuzzPoints(data, n, d, false)
		rows := vec.AliasRows(pts, d)
		if f32 {
			// Keep the huge coordinates finite in float32: an infinite
			// component makes distances NaN, which no order ranks.
			for _, p := range pts {
				for j, x := range p {
					p[j] = max(-1e30, min(x, 1e30))
				}
			}
			rows = rows.Narrow()
		}
		head := rows.Head(base)
		tree := NewTree(&head)
		dead := make([]bool, n)
		for i := range dead {
			dead[i] = deadEvery > 0 && i%int(deadEvery) == 0
		}
		var sc Scratch
		for qi := 0; qi < n; qi += 7 {
			q := rows.Row(qi, nil)
			sc.Reset(k)
			tree.Offer(&sc, &rows, q, dead)
			got := sc.Sorted()
			var want []Neighbor
			for i := 0; i < base; i++ {
				if !dead[i] {
					want = append(want, Neighbor{ID: i, Dist: rows.SqDist(q, i)})
				}
			}
			slices.SortStableFunc(want, func(a, b Neighbor) int {
				if a.Dist != b.Dist {
					if a.Dist < b.Dist {
						return -1
					}
					return 1
				}
				return a.ID - b.ID
			})
			want = want[:min(k, len(want))]
			if err := sameNeighbors(got, want); err != nil {
				t.Fatalf("n=%d d=%d k=%d f32=%v query %d: %v", n, d, k, f32, qi, err)
			}
		}
	})
}
