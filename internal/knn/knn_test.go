package knn

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mogul/internal/vec"
)

func randomPoints(rng *rand.Rand, n, dim int) []vec.Vector {
	pts := make([]vec.Vector, n)
	for i := range pts {
		pts[i] = make(vec.Vector, dim)
		for j := range pts[i] {
			pts[i][j] = rng.NormFloat64()
		}
	}
	return pts
}

// naiveKNN is the oracle: full sort by distance.
func naiveKNN(q vec.Vector, points []vec.Vector, k int) []Neighbor {
	type pair struct {
		id int
		d  float64
	}
	all := make([]pair, len(points))
	for i, p := range points {
		all[i] = pair{i, math.Sqrt(vec.SquaredEuclidean(q, p))}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].d != all[b].d {
			return all[a].d < all[b].d
		}
		return all[a].id < all[b].id
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]Neighbor, k)
	for i := 0; i < k; i++ {
		out[i] = Neighbor{ID: all[i].id, Dist: all[i].d}
	}
	return out
}

func TestBruteForceMatchesNaive(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		pts := randomPoints(rng, n, 4)
		bf := NewBruteForce(pts)
		q := randomPoints(rng, 1, 4)[0]
		k := 1 + rng.Intn(n)
		got := bf.Search(q, k)
		want := naiveKNN(q, pts, k)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			// Distances must agree; ids may differ only on exact ties.
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBruteForceZeroK(t *testing.T) {
	bf := NewBruteForce(randomPoints(rand.New(rand.NewSource(1)), 5, 2))
	if got := bf.Search(vec.Vector{0, 0}, 0); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
}

func TestAllKNNExcludesSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := randomPoints(rng, 60, 3)
	nbrs := AllKNN(pts, NewBruteForce(pts), 5)
	for i, list := range nbrs {
		if len(list) != 5 {
			t.Fatalf("node %d has %d neighbours", i, len(list))
		}
		for _, nb := range list {
			if nb.ID == i {
				t.Fatalf("node %d lists itself", i)
			}
		}
		// Ascending distances.
		for j := 1; j < len(list); j++ {
			if list[j].Dist < list[j-1].Dist-1e-12 {
				t.Fatalf("node %d neighbours not ascending", i)
			}
		}
	}
}

func TestAllKNNWithDuplicatePoints(t *testing.T) {
	// Duplicate points tie with self at distance zero; self must still
	// be excluded by ID.
	pts := []vec.Vector{{0, 0}, {0, 0}, {1, 0}, {2, 0}}
	nbrs := AllKNN(pts, NewBruteForce(pts), 2)
	for i, list := range nbrs {
		for _, nb := range list {
			if nb.ID == i {
				t.Fatalf("node %d lists itself despite duplicates", i)
			}
		}
	}
	if nbrs[0][0].ID != 1 || nbrs[0][0].Dist != 0 {
		t.Fatalf("duplicate neighbour not found first: %+v", nbrs[0])
	}
}

func TestBuildGraphInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 120, 4)
	g, err := BuildGraph(pts, GraphConfig{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 120 {
		t.Fatalf("Len = %d", g.Len())
	}
	if !g.Adj.IsSymmetric(1e-12) {
		t.Fatal("adjacency not symmetric")
	}
	for i := 0; i < g.Len(); i++ {
		if g.Adj.At(i, i) != 0 {
			t.Fatalf("self loop at %d", i)
		}
		cols, vals := g.Neighbors(i)
		if len(cols) < 5 {
			t.Fatalf("node %d has only %d edges; union symmetrization guarantees >= k", i, len(cols))
		}
		for t2, w := range vals {
			if w <= 0 || w > 1 {
				t.Fatalf("edge (%d,%d) weight %g outside (0,1]", i, cols[t2], w)
			}
		}
	}
	if g.Sigma <= 0 {
		t.Fatalf("sigma = %g", g.Sigma)
	}
}

func TestBuildGraphMutualSubsetOfUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts := randomPoints(rng, 100, 3)
	union, err := BuildGraph(pts, GraphConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	mutual, err := BuildGraph(pts, GraphConfig{K: 4, Mutual: true})
	if err != nil {
		t.Fatal(err)
	}
	if mutual.NumEdges() > union.NumEdges() {
		t.Fatalf("mutual graph has more edges (%d) than union (%d)", mutual.NumEdges(), union.NumEdges())
	}
	for i := 0; i < mutual.Len(); i++ {
		cols, _ := mutual.Neighbors(i)
		for _, j := range cols {
			if union.Adj.At(i, j) == 0 {
				t.Fatalf("mutual edge (%d,%d) missing from union graph", i, j)
			}
		}
	}
}

func TestBuildGraphErrors(t *testing.T) {
	pts := randomPoints(rand.New(rand.NewSource(7)), 10, 2)
	if _, err := BuildGraph(pts[:1], GraphConfig{K: 2}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := BuildGraph(pts, GraphConfig{K: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
	// Ragged and zero-width points are errors, not panics in the search.
	if _, err := BuildGraph([]vec.Vector{{1, 2, 3}, {1, 2}, {0, 0, 0}}, GraphConfig{K: 1}); err == nil {
		t.Fatal("ragged points accepted")
	}
	if _, err := BuildGraph([]vec.Vector{{}, {}, {}}, GraphConfig{K: 1}); err == nil {
		t.Fatal("zero-width points accepted")
	}
	// K >= n clamps to n-1.
	g, err := BuildGraph(pts, GraphConfig{K: 100})
	if err != nil {
		t.Fatal(err)
	}
	if g.K != 9 {
		t.Fatalf("K clamped to %d, want 9", g.K)
	}
}

func TestBuildGraphIdenticalPoints(t *testing.T) {
	// Degenerate data must not produce NaN weights or zero sigma.
	pts := make([]vec.Vector, 20)
	for i := range pts {
		pts[i] = vec.Vector{1, 2}
	}
	g, err := BuildGraph(pts, GraphConfig{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.Len(); i++ {
		_, vals := g.Neighbors(i)
		for _, w := range vals {
			if math.IsNaN(w) || w != 1 {
				t.Fatalf("identical points edge weight %g, want 1", w)
			}
		}
	}
}

func TestComponents(t *testing.T) {
	// Two far-apart blobs with small k give two components.
	rng := rand.New(rand.NewSource(8))
	var pts []vec.Vector
	for i := 0; i < 30; i++ {
		pts = append(pts, vec.Vector{rng.NormFloat64() * 0.1, 0})
	}
	for i := 0; i < 30; i++ {
		pts = append(pts, vec.Vector{1000 + rng.NormFloat64()*0.1, 0})
	}
	g, err := BuildGraph(pts, GraphConfig{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	labels, count := g.Components()
	if count < 2 {
		t.Fatalf("components = %d, want >= 2 (far blobs cannot connect)", count)
	}
	// No component may span both blobs; a blob's own k-NN graph may
	// legitimately fragment further, so only cross-blob merging is a
	// failure.
	seen := map[int]bool{}
	for i := 0; i < 30; i++ {
		seen[labels[i]] = true
	}
	for i := 30; i < 60; i++ {
		if seen[labels[i]] {
			t.Fatalf("component %d spans both blobs", labels[i])
		}
	}
}

func TestNormalizedAdjacencySpectralRadius(t *testing.T) {
	// Row sums of |S| relate to the random-walk matrix; verify S is
	// symmetric and that power iteration stays bounded (spectral
	// radius <= 1), the property Manifold Ranking convergence needs.
	rng := rand.New(rand.NewSource(9))
	pts := randomPoints(rng, 80, 3)
	g, err := BuildGraph(pts, GraphConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := g.NormalizedAdjacency()
	if !s.IsSymmetric(1e-12) {
		t.Fatal("normalized adjacency not symmetric")
	}
	x := make([]float64, g.Len())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	var norm float64
	for _, v := range x {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	for i := range x {
		x[i] /= norm
	}
	for it := 0; it < 100; it++ {
		x = s.MulVec(x)
	}
	var after float64
	for _, v := range x {
		after += v * v
	}
	if math.Sqrt(after) > 1+1e-9 {
		t.Fatalf("||S^100 x|| = %g > 1: spectral radius exceeds 1", math.Sqrt(after))
	}
}

// TestSqDistBatchMatchesSqDistTo pins the graph points' batch-by-ids
// distance (vec.Rows.SqDistIDs) to the one-point one (SqDist), bit for
// bit, in both storage precisions, for candidate lists of every
// four-row remainder with repeated ids.
func TestSqDistBatchMatchesSqDistTo(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, dim := range []int{1, 7, 8, 67} {
		g := &Graph{Points: vec.AliasRows(randomPoints(rng, 23, dim), dim)}
		q := randomPoints(rng, 1, dim)[0]
		for _, f32 := range []bool{false, true} {
			if f32 {
				g.Narrow32()
			}
			for n := 0; n <= 9; n++ {
				ids := make([]int, n)
				for i := range ids {
					ids[i] = rng.Intn(23)
				}
				out := make([]float64, n)
				g.Points.SqDistIDs(q, ids, out)
				for i, id := range ids {
					if want := g.Points.SqDist(q, id); math.Float64bits(out[i]) != math.Float64bits(want) {
						t.Fatalf("dim=%d f32=%v n=%d: SqDistIDs[%d] = %v, SqDist(%d) = %v", dim, f32, n, i, out[i], id, want)
					}
				}
			}
		}
	}
}
