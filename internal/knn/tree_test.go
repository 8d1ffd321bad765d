package knn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
// squares still sum below the overflow threshold at d = 160). wild adds
// rows one ulp from an earlier row and the kinds the leaf screen of the
// graph build must pass to the exact scan or bound across underflow:
// NaN, ±Inf, ±1e155 (whose squared norms overflow at d ≥ 4) and values
// near 2⁻⁵³⁷, whose products round at the underflow threshold.
func fuzzPoints(data []byte, n, d int, wild bool) []vec.Vector {
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
		if c := next(); i > 0 && (c%4 == 0 || wild && c%4 == 1) {
			pts[i] = slices.Clone(pts[(c/4)%i])
			if c%4 == 1 {
				j := (c / 4) % d
				pts[i][j] = math.Nextafter(pts[i][j], math.Inf(1))
			}
			continue
		}
		kinds := 7
		if wild {
			kinds = 15
		}
		p := make(vec.Vector, d)
		for j := range p {
			c := next()
			v := float64(c>>3) - 15.5 // in [-15.5, 15.5]
			switch c & kinds {
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
			case 8:
				p[j] = math.NaN()
			case 9:
				p[j] = math.Inf(1 - 2*(c>>4&1))
			case 10, 11:
				p[j] = v / 15.5 * 1e155
			case 12, 13:
				p[j] = (1 + float64(c>>4)/5) * 0x1p-537
			default:
				p[j] = v / 15.5 * 1e150 * float64(c>>4&1)
			}
		}
		pts[i] = p
	}
	return pts
}

// FuzzExactKNN holds the tree to the brute-force scan on fuzzed point
// sets: for every stored point as the query (and one decoded query),
// the same ids in the same order with the same distance bits, and the
// same lists from the graph build's all-points search, whose queries
// walk the tree in bundles from d = 32. d runs to 160, so every leaf
// size (16 rows to d = 32, d/2 rows, 64 from d = 128), both sides of
// the bundle threshold and every length mod 4 of the box kernel are
// reached. A wild set runs d from 4 to 516 and decodes fuzzPoints' wild
// kinds. Where they include NaN or ±Inf, the k smallest depend on the
// order rows are offered in, so the brute-force scan is no oracle there;
// every wild set's all-points lists must still be each point's solo
// search (SearchInto for k+1, self dropped), whose leaves are never
// screened, and BuildGraph must build a graph from them.
func FuzzExactKNN(f *testing.F) {
	f.Add([]byte{2, 10, 18, 26, 34, 42}, uint8(60), uint8(2), uint8(5), false)             // lattice
	f.Add([]byte{0, 1, 4, 8, 2, 10, 0}, uint8(40), uint8(3), uint8(7), false)              // ±0 and duplicates
	f.Add([]byte{3, 11, 19, 5, 13, 21, 4, 12}, uint8(80), uint8(5), uint8(3), false)       // subnormal, tiny
	f.Add([]byte{7, 15, 23, 31, 6, 14, 255, 128}, uint8(120), uint8(40), uint8(10), false) // huge, moderate
	f.Add([]byte{6, 14, 22, 30, 38, 46, 54, 62, 70}, uint8(200), uint8(8), uint8(202), false)
	f.Add([]byte{}, uint8(30), uint8(1), uint8(4), false)                                     // all zero: θ = 0 throughout
	f.Add([]byte{6, 14, 2, 10, 22, 7, 30, 4, 38}, uint8(180), uint8(69), uint8(9), false)     // d = 70: 35-row leaves
	f.Add([]byte{6, 13, 22, 5, 30, 2, 46, 62, 3, 1}, uint8(199), uint8(141), uint8(7), false) // d = 142: 64-row leaves
	// The leaf screen's cases, wild (d = 4 + 2·db). kinds(c…) spreads a
	// byte's kind (c & 15) over every magnitude (c >> 4).
	moderate, ulp := kinds(6), []byte{17, 33}
	f.Add(wildSeed(moderate, ulp), uint8(150), uint8(62), uint8(5), true)                                  // rows one ulp apart, d = 128
	f.Add(wildSeed(kinds(3)), uint8(120), uint8(30), uint8(5), true)                                       // subnormal only, d = 64
	f.Add(wildSeed(kinds(7), kinds(3)), uint8(140), uint8(255), uint8(5), true)                            // 1e150 and subnormal, d = 514
	f.Add(wildSeed(kinds(10, 11), moderate, moderate), uint8(100), uint8(20), uint8(5), true)              // norms past overflow, d = 44
	f.Add(wildSeed(kinds(12, 13), moderate), uint8(130), uint8(50), uint8(5), true)                        // products at the underflow threshold
	f.Add([]byte{6, 0, 4, 16, 20, 32, 36, 48, 52, 64}, uint8(160), uint8(64), uint8(6), true)              // k + 1 duplicates: θ = 0
	f.Add(wildSeed(moderate, moderate, moderate, []byte{8, 9, 25}), uint8(180), uint8(60), uint8(5), true) // NaN and ±Inf rows
	f.Fuzz(func(t *testing.T, data []byte, nb, db, kb uint8, wild bool) {
		n := 1 + int(nb)%200
		d := 1 + int(db)%160
		if wild {
			d = 4 + 2*int(db)
		}
		k := 1 + int(kb)%(n+2)
		pts := fuzzPoints(data, n, d, wild)
		tree, bf := searchTree(pts), NewBruteForce(pts)
		all := AllKNN(pts, tree, k)
		if wild {
			var sc Scratch
			for i, q := range pts {
				want := others(nil, tree.SearchInto(&sc, q, k+1), i, k)
				if err := sameNeighbors(all[i], want); err != nil {
					t.Fatalf("n=%d d=%d k=%d all-points list %d against its solo search: %v", n, d, k, i, err)
				}
			}
			if _, err := BuildGraph(pts, GraphConfig{K: k}); err != nil && n > 1 {
				t.Fatalf("n=%d d=%d k=%d: BuildGraph: %v", n, d, k, err)
			}
			if !allFinite(pts) {
				return
			}
		}
		queries := append(slices.Clone(pts), fuzzPoints(append([]byte{1}, data...), 1, d, wild)[0])
		var sc Scratch
		for qi, q := range queries {
			if err := sameNeighbors(tree.SearchInto(&sc, q, k), bf.Search(q, k)); err != nil {
				t.Fatalf("n=%d d=%d k=%d query %d: %v", n, d, k, qi, err)
			}
		}
		want := AllKNN(pts, bf, k)
		for i, list := range all {
			if err := sameNeighbors(list, want[i]); err != nil {
				t.Fatalf("n=%d d=%d k=%d all-points list %d: %v", n, d, k, i, err)
			}
		}
	})
}

// kinds returns the bytes whose coordinate kind in fuzzPoints (c & 15)
// is one of ks, at every magnitude c >> 4.
func kinds(ks ...byte) []byte {
	var out []byte
	for _, k := range ks {
		for hi := 0; hi < 16; hi++ {
			out = append(out, byte(hi<<4)|k)
		}
	}
	return out
}

// wildSeed returns 4099 bytes drawn from the groups, each group as
// likely as the next: prime and longer than any row, so the rows
// fuzzPoints decodes from it differ.
func wildSeed(groups ...[]byte) []byte {
	rng := rand.New(rand.NewSource(int64(len(groups))))
	out := make([]byte, 4099)
	for i := range out {
		g := groups[rng.Intn(len(groups))]
		out[i] = g[rng.Intn(len(g))]
	}
	return out
}

// The ceilings of TestTreeWorkAtD128.
const maxRowsD128, maxNodesD128, maxExactD128 = 900, 87, 79

// TestTreeLeafBoxes walks trees whose leaves end on the bottom level,
// one level early (n just past a multiple of the leaf size), or at the
// root: the leaves are numbered 0, 1, … left to right, there is one box
// per leaf and no more, and each box is its rows' extent.
func TestTreeLeafBoxes(t *testing.T) {
	for _, d := range []int{1, 3, 8, 40, 64, 130} {
		size := leafRows(d)
		for _, n := range []int{0, 1, size, size + 1, 2*size + 1, 4*size + 3, 8*size - 1, 8*size + 1, 1000} {
			pts := scratchTestPoints(n, d, int64(n+d))
			rows := vec.AliasRows(pts, d)
			tree := NewTree(&rows)
			next := 0
			var walk func(node, lo, hi int)
			walk = func(node, lo, hi int) {
				if !tree.leaf(node, lo, hi) {
					mid := lo + (hi-lo)/2
					walk(2*node+1, lo, mid)
					walk(2*node+2, mid, hi)
					return
				}
				if got := tree.leafNumber(node); got != next {
					t.Fatalf("d=%d n=%d: leaf at node %d is numbered %d, want %d", d, n, node, got, next)
				}
				if hi > lo {
					want := make([]float64, 2*d)
					extent(&rows, tree.ids[lo:hi], want, make([]float64, d))
					if got := tree.box[2*d*next : 2*d*(next+1)]; !slices.Equal(got, want) {
						t.Fatalf("d=%d n=%d: leaf %d box %v, want %v", d, n, next, got, want)
					}
				}
				next++
			}
			walk(0, 0, n)
			if len(tree.box) != 2*d*next {
				t.Fatalf("d=%d n=%d: %d box values for %d leaves", d, n, len(tree.box), next)
			}
		}
	}
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
// which meets the rows in leaf order rather than id order, and the scan
// must keep the same three.
func TestAllKNNTiesByID(t *testing.T) {
	const side, k = 12, 3
	pts := latticePoints(side)
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
	got := AllKNN(pts, searchTree(pts), k)
	for i := range got {
		if err := sameNeighbors(got[i], want[i]); err != nil {
			t.Fatalf("tree point %d: %v", i, err)
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

// treeWork runs every point of pts as a k-nearest query, self
// included, through the graph build's all-points search over them (a
// graph of k−1 neighbours) and returns the rows scanned, the nodes
// visited and the exact distances computed per query, summed over the
// queries' own counters: the bundles move rows through the cache, not
// work between queries.
func treeWork(pts []vec.Vector, k int) (rows, nodes, exact float64) {
	work := make([]queryWork, len(pts))
	searchTree(pts).allKNN(pts, k-1, work)
	var r, v, e int
	for _, w := range work {
		r += w.rows
		v += w.nodes
		e += w.exact
	}
	n := float64(len(pts))
	return float64(r) / n, float64(v) / n, float64(e) / n
}

// TestBundledAllKNNMatchesSolo holds the graph build's all-points
// search, whose queries walk the tree in bundles from d = 32, to every
// point walking it alone (SearchInto for k+1, self dropped): the same
// ids, the same distance bits, and the same rows scanned and nodes
// visited per query, at GOMAXPROCS 1 and 2 (the leaf screen computes
// fewer exact distances; TestTreeWorkAtD128 counts them). The corpora are the
// engines' shapes, the d = 8 mixture (a bundle of one), all-equal
// points (θ = 0 throughout), k = n − 1, n = 2, and sizes just past a
// multiple of the leaf size, whose leaves end a level early.
func TestBundledAllKNNMatchesSolo(t *testing.T) {
	equal := make([]vec.Vector, 300)
	for i := range equal {
		equal[i] = make(vec.Vector, 40)
		for j := range equal[i] {
			equal[i][j] = 1.5
		}
	}
	type corpus struct {
		name string
		pts  []vec.Vector
		k    int
	}
	corpora := []corpus{
		{"inria-d128", dataset.INRIASim(3000, 1).Points, 5},
		{"unit-d512", unitMixture(2000, 512), 5},
		{"isotropic-d32", scratchTestPoints(3000, 32, 7), 5},
		{"mixture-d8", mixture8(3000), 5},
		{"equal-d40", equal, 5},
		{"k=n-1", scratchTestPoints(90, 48, 3), 89},
		{"n=2", scratchTestPoints(2, 64, 5), 1},
	}
	for _, d := range []int{40, 130} {
		size := leafRows(d)
		for _, n := range []int{size + 1, 2*size + 1, 4*size + 3, 8*size - 1, 8*size + 1} {
			corpora = append(corpora, corpus{fmt.Sprintf("d%d-n%d", d, n), scratchTestPoints(n, d, int64(n)), 6})
		}
	}
	for _, c := range corpora {
		tree := searchTree(c.pts)
		want := make([][]Neighbor, len(c.pts))
		wantWork := make([]queryWork, len(c.pts))
		for i, q := range c.pts {
			var sc Scratch
			want[i] = others(nil, tree.SearchInto(&sc, q, c.k+1), i, c.k)
			wantWork[i] = queryWork{rows: sc.rows, nodes: sc.nodes}
		}
		for _, procs := range []int{1, 2} {
			prev := runtime.GOMAXPROCS(procs)
			work := make([]queryWork, len(c.pts))
			got := tree.allKNN(c.pts, c.k, work)
			runtime.GOMAXPROCS(prev)
			for i := range c.pts {
				if err := sameNeighbors(got[i], want[i]); err != nil {
					t.Fatalf("%s GOMAXPROCS=%d point %d: %v", c.name, procs, i, err)
				}
				if work[i].rows != wantWork[i].rows || work[i].nodes != wantWork[i].nodes {
					t.Fatalf("%s GOMAXPROCS=%d point %d: %d rows and %d nodes, alone %d and %d",
						c.name, procs, i, work[i].rows, work[i].nodes, wantWork[i].rows, wantWork[i].nodes)
				}
			}
		}
	}
}

// TestTreePrunes pins that the bounds bite: on the d = 8 mixture a
// query computes ~70 distances of 5000. The equality tests above cannot
// see a bound that is merely loose, or offsets left stale.
func TestTreePrunes(t *testing.T) {
	if rows, _, _ := treeWork(mixture8(5000), 6); rows > 100 {
		t.Fatalf("%.1f rows per query, want at most 100", rows)
	}
}

// TestTreeWorkAtD128 pins the work of a graph build's queries at
// graph_id's shape (INRIASim, d = 128; n = 3000 here): rows scanned,
// nodes visited and exact distances computed per query, all
// deterministic, each ceiling its value when it was recorded rounded up
// by under 1 %. Like TestTreePrunes it sees what the equality tests
// cannot: gating the leaf box check on the plane bound (at θ/4) scans
// ~1219 rows per query, 16-row leaves visit ~276 nodes, and without the
// leaf screen every one of the ~896 rows is an exact distance. Where the
// fused dots have no assembly body (vec.FastFMA) the screen is off and
// every row scanned is exact.
func TestTreeWorkAtD128(t *testing.T) {
	rows, nodes, exact := treeWork(dataset.INRIASim(3000, 1).Points, 6)
	t.Logf("%.1f rows, %.1f nodes, %.2f exact distances per query", rows, nodes, exact)
	if rows > maxRowsD128 || nodes > maxNodesD128 {
		t.Fatalf("%.1f rows and %.1f nodes per query, want at most %v and %v", rows, nodes, maxRowsD128, maxNodesD128)
	}
	switch {
	case !vec.FastFMA() && exact != rows:
		t.Fatalf("%.2f exact distances per query of %.1f rows with the screen off", exact, rows)
	case vec.FastFMA() && exact > maxExactD128:
		t.Fatalf("%.2f exact distances per query, want at most %v", exact, maxExactD128)
	}
}

// BenchmarkAllKNN times the k = 5 all-points search of a graph build —
// brute force and the tree — at the shapes the engines build: the
// mixed_rw and spectral_id corpus, one dist_fanout shard, INRIASim
// (graph_id at n = 14000), unit-norm d = 512 (graph_vec_d512 at
// n = 6000), an isotropic Gaussian (the tree's worst case), and a
// tree-only n = 10^5 row. rows/query is distances computed per query,
// nodes/query tree nodes visited, each summed over the queries' own
// counters. B/op shows any per-block state of the all-points search.
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
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					AllKNN(pts, NewBruteForce(pts), k)
				}
				b.ReportMetric(float64(len(pts)), "rows/query")
				b.ReportMetric(0, "nodes/query")
			})
		}
		b.Run(c.name+"/tree", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				AllKNN(pts, searchTree(pts), k)
			}
			b.StopTimer()
			rows, nodes, exact := treeWork(pts, k+1)
			b.ReportMetric(rows, "rows/query")
			b.ReportMetric(nodes, "nodes/query")
			b.ReportMetric(exact, "exact-rows/query")
		})
	}
}
