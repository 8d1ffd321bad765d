package knn

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mogul/internal/dataset"
	"mogul/internal/vec"
)

// sameNeighbors reports the first difference between two answers: ids
// in the same order and distances with the same bits.
func sameNeighbors(got, want []Neighbor) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			return fmt.Errorf("result %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// fuzzPoints decodes n points of dimension d from data, read cyclically.
// One byte per row may make it a duplicate of an earlier row; one byte
// per coordinate picks its kind: ±0, a small lattice integer (many exact
// distance ties), a subnormal, the smallest normals, ~1e-160 (whose
// squares are subnormal), a moderate value, or up to ±1e150 (whose
// squares still sum below the overflow threshold at d = 40).
func fuzzPoints(data []byte, n, d int) []vec.Vector {
	pos := 0
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[pos%len(data)]
		pos++
		return int(b)
	}
	pts := make([]vec.Vector, n)
	for i := range pts {
		if c := next(); i > 0 && c%4 == 0 {
			pts[i] = slices.Clone(pts[(c/4)%i])
			continue
		}
		p := make(vec.Vector, d)
		for j := range p {
			c := next()
			v := float64(c>>3) - 15.5 // in [-15.5, 15.5]
			switch c & 7 {
			case 0:
				p[j] = 0
			case 1:
				p[j] = math.Copysign(0, -1)
			case 2:
				p[j] = float64(c>>3%5) - 2
			case 3:
				p[j] = v * math.SmallestNonzeroFloat64
			case 4:
				p[j] = v * 0x1p-1022
			case 5:
				p[j] = v * 1e-160
			case 6:
				p[j] = v / 7
			case 7:
				p[j] = v / 15.5 * 1e150
			}
		}
		pts[i] = p
	}
	return pts
}

// FuzzExactKNN holds the tree to the brute-force scan on fuzzed point
// sets: for every stored point as the query (and one decoded query),
// the same ids in the same order with the same distance bits.
func FuzzExactKNN(f *testing.F) {
	f.Add([]byte{2, 10, 18, 26, 34, 42}, uint8(60), uint8(2), uint8(5))             // lattice
	f.Add([]byte{0, 1, 4, 8, 2, 10, 0}, uint8(40), uint8(3), uint8(7))              // ±0 and duplicates
	f.Add([]byte{3, 11, 19, 5, 13, 21, 4, 12}, uint8(80), uint8(5), uint8(3))       // subnormal, tiny
	f.Add([]byte{7, 15, 23, 31, 6, 14, 255, 128}, uint8(120), uint8(40), uint8(10)) // huge, moderate
	f.Add([]byte{6, 14, 22, 30, 38, 46, 54, 62, 70}, uint8(200), uint8(8), uint8(202))
	f.Add([]byte{}, uint8(30), uint8(1), uint8(4)) // all zero: θ = 0 throughout
	f.Fuzz(func(t *testing.T, data []byte, nb, db, kb uint8) {
		n := 1 + int(nb)%200
		d := 1 + int(db)%40
		k := 1 + int(kb)%(n+2)
		pts := fuzzPoints(data, n, d)
		tree, bf := NewTree(pts), NewBruteForce(pts)
		queries := append(slices.Clone(pts), fuzzPoints(append([]byte{1}, data...), 1, d)[0])
		var sc Scratch
		for qi, q := range queries {
			if err := sameNeighbors(tree.SearchInto(&sc, q, k), bf.Search(q, k)); err != nil {
				t.Fatalf("n=%d d=%d k=%d query %d: %v", n, d, k, qi, err)
			}
		}
	})
}

// latticePoints is the side×side integer grid in row-major id order.
func latticePoints(side int) []vec.Vector {
	pts := make([]vec.Vector, 0, side*side)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			pts = append(pts, vec.Vector{float64(r), float64(c)})
		}
	}
	return pts
}

// TestAllKNNTiesByID: on a lattice an interior point has four
// neighbours at distance 1, so with k = 3 the (squared distance, id)
// rule alone decides which three are kept — the lowest ids. The tree,
// the scan and an IVF that probes every cell (so it sees every row, in
// cell order rather than id order) must all keep the same three.
func TestAllKNNTiesByID(t *testing.T) {
	const side, k = 12, 3
	pts := latticePoints(side)
	ivf, err := NewIVF(pts, IVFConfig{NList: 9, NProbe: 9, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := AllKNN(pts, NewBruteForce(pts), k)
	if got := want[5*side+5]; got[0].ID != 4*side+5 || got[1].ID != 5*side+4 || got[2].ID != 5*side+6 {
		t.Fatalf("interior point keeps %+v, want ids %d, %d, %d", got, 4*side+5, 5*side+4, 5*side+6)
	}
	for i, list := range want {
		// The oracle: a full sort under (squared distance, id), self dropped.
		all := make([]Neighbor, 0, len(pts))
		for j, p := range pts {
			if j != i {
				all = append(all, Neighbor{ID: j, Dist: vec.SquaredEuclidean(pts[i], p)})
			}
		}
		slices.SortFunc(all, func(a, b Neighbor) int {
			if a.Dist != b.Dist {
				if a.Dist < b.Dist {
					return -1
				}
				return 1
			}
			return a.ID - b.ID
		})
		for r, nb := range list {
			if nb.ID != all[r].ID || nb.Dist != math.Sqrt(all[r].Dist) {
				t.Fatalf("point %d rank %d: scan keeps %+v, oracle %+v", i, r, nb, all[r])
			}
		}
	}
	for name, s := range map[string]Searcher{"tree": NewTree(pts), "ivf": ivf} {
		got := AllKNN(pts, s, k)
		for i := range got {
			if err := sameNeighbors(got[i], want[i]); err != nil {
				t.Fatalf("%s point %d: %v", name, i, err)
			}
		}
	}
}

// unitMixture is the CNN-embedding stand-in of the d = 512 workloads:
// unit-norm points on 16-dimensional class manifolds.
func unitMixture(n, d int) []vec.Vector {
	pts := dataset.Mixture(dataset.MixtureConfig{
		N: n, Classes: max(n/50, 2), Dim: d, IntrinsicDim: 16, WithinStd: 0.25, Separation: 3.0, Seed: 1,
	}).Points
	for _, p := range pts {
		p.Scale(1 / math.Sqrt(vec.Dot(p, p)))
	}
	return pts
}

// mixture8 is the d = 8 micro-cluster corpus of mixed_rw and the
// dist_fanout shards.
func mixture8(n int) []vec.Vector {
	return dataset.Mixture(dataset.MixtureConfig{
		N: n, Classes: max(n/10, 2), Dim: 8, WithinStd: 0.25, Separation: 3.0, Seed: 1,
	}).Points
}

// TestBuildGraphTreeMatchesBruteForce: BuildGraph's exact path (the
// tree) gives the graph a brute-force build gives, to the bit, on the
// corpus shapes the engines run.
func TestBuildGraphTreeMatchesBruteForce(t *testing.T) {
	corpora := []struct {
		name string
		pts  []vec.Vector
	}{
		{"mixture-d8", mixture8(5000)},
		{"unit-d512", unitMixture(2000, 512)},
		{"inria-d128", dataset.INRIASim(2000, 1).Points},
		{"isotropic-d32", scratchTestPoints(3000, 32, 7)},
	}
	for _, c := range corpora {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg := GraphConfig{K: 5}
			got, err := BuildGraph(c.pts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := graphFromNeighbors(c.pts, AllKNN(c.pts, NewBruteForce(c.pts), cfg.K), cfg.K, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.Sigma) != math.Float64bits(want.Sigma) {
				t.Fatalf("sigma %v, brute force %v", got.Sigma, want.Sigma)
			}
			a, b := got.Adj, want.Adj
			if !slices.Equal(a.RowPtr, b.RowPtr) || !slices.Equal(a.Col, b.Col) {
				t.Fatal("adjacency structure differs from the brute-force build")
			}
			for i := range a.Val {
				if math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
					t.Fatalf("edge weight %d: %v, brute force %v", i, a.Val[i], b.Val[i])
				}
			}
		})
	}
}

// TestTreePrunes pins that the bounds bite: on the d = 8 mixture a
// query computes ~70 distances of 5000. The equality tests above cannot
// see a bound that is merely loose, or offsets left stale.
func TestTreePrunes(t *testing.T) {
	pts := mixture8(5000)
	tree := NewTree(pts)
	var sc Scratch
	for _, q := range pts {
		tree.SearchInto(&sc, q, 6)
	}
	if rows := float64(sc.rows) / float64(len(pts)); rows > 100 {
		t.Fatalf("%.1f rows per query, want at most 100", rows)
	}
}

// BenchmarkAllKNN times the k = 5 all-points search of a graph build —
// brute force, the tree, and IVF with BuildGraph's defaults (8 of
// ceil(sqrt(n)) lists probed, quantizer included in the time) — at the
// shapes the engines build: the mixed_rw and spectral_id corpus, one
// dist_fanout shard, INRIASim (graph_id at n = 14000), unit-norm
// d = 512 (graph_vec_d512 at n = 6000), an isotropic Gaussian (the
// tree's worst case), and a tree-only n = 10^5 row. rows/query is
// distances computed per query, nodes/query tree nodes visited, and
// recovered the share of the exact k-NN lists the IVF lists hold.
//
//	go test -run '^$' -bench 'BenchmarkAllKNN' -benchtime 1x ./internal/knn
func BenchmarkAllKNN(b *testing.B) {
	const k = 5
	corpora := []struct {
		name     string
		pts      func() []vec.Vector
		treeOnly bool
	}{
		{name: "mixture-n20000-d8", pts: func() []vec.Vector { return mixture8(20000) }},
		{name: "mixture-n5000-d8", pts: func() []vec.Vector { return mixture8(5000) }},
		{name: "inria-n4000-d128", pts: func() []vec.Vector { return dataset.INRIASim(4000, 1).Points }},
		{name: "inria-n14000-d128", pts: func() []vec.Vector { return dataset.INRIASim(14000, 1).Points }},
		{name: "unit-n4000-d512", pts: func() []vec.Vector { return unitMixture(4000, 512) }},
		{name: "unit-n6000-d512", pts: func() []vec.Vector { return unitMixture(6000, 512) }},
		{name: "isotropic-n8000-d32", pts: func() []vec.Vector { return scratchTestPoints(8000, 32, 1) }},
		{name: "mixture-n100000-d8", pts: func() []vec.Vector { return mixture8(100000) }, treeOnly: true},
	}
	for _, c := range corpora {
		pts := c.pts()
		if !c.treeOnly {
			b.Run(c.name+"/brute", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					AllKNN(pts, NewBruteForce(pts), k)
				}
				b.ReportMetric(float64(len(pts)), "rows/query")
				b.ReportMetric(0, "nodes/query")
			})
		}
		b.Run(c.name+"/tree", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				AllKNN(pts, NewTree(pts), k)
			}
			b.StopTimer()
			tree := NewTree(pts)
			var sc Scratch
			for _, q := range pts {
				tree.SearchInto(&sc, q, k+1)
			}
			b.ReportMetric(float64(sc.rows)/float64(len(pts)), "rows/query")
			b.ReportMetric(float64(sc.nodes)/float64(len(pts)), "nodes/query")
		})
		if c.treeOnly {
			continue
		}
		b.Run(c.name+"/ivf", func(b *testing.B) {
			var ivf *IVF
			var lists [][]Neighbor
			for i := 0; i < b.N; i++ {
				var err error
				if ivf, err = NewIVF(pts, IVFConfig{}); err != nil {
					b.Fatal(err)
				}
				lists = AllKNN(pts, ivf, k)
			}
			b.StopTimer()
			var sc Scratch
			for _, q := range pts {
				ivf.SearchInto(&sc, q, k+1)
			}
			exact := AllKNN(pts, NewTree(pts), k)
			found, total := 0, 0
			for i, want := range exact {
				for _, nb := range want {
					if slices.ContainsFunc(lists[i], func(x Neighbor) bool { return x.ID == nb.ID }) {
						found++
					}
					total++
				}
			}
			b.ReportMetric(float64(sc.rows)/float64(len(pts)), "rows/query")
			b.ReportMetric(float64(found)/float64(total), "recovered")
		})
	}
}
