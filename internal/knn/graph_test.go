package knn

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"mogul/internal/dataset"
	"mogul/internal/sparse"
	"mogul/internal/vec"
)

// coordsOracle is the graph assembly as it was before it wrote the CSR
// directly: the listings as (min, max, dist) records, one global sort,
// run-length dedup (under mutual a pair needs both directions), and the
// heat-kernel weights as two coordinates per edge that
// sparse.NewFromCoords sorts again into the CSR.
func coordsOracle(neighbors [][]Neighbor, sigma float64, mutual bool) *sparse.CSR {
	type record struct {
		a, b int32
		d    float64
	}
	var records []record
	for i, nbrs := range neighbors {
		for _, nb := range nbrs {
			a, c := i, nb.ID
			if a == c {
				continue
			}
			if a > c {
				a, c = c, a
			}
			records = append(records, record{a: int32(a), b: int32(c), d: nb.Dist})
		}
	}
	sort.Slice(records, func(i, j int) bool {
		if records[i].a != records[j].a {
			return records[i].a < records[j].a
		}
		return records[i].b < records[j].b
	})
	var entries []sparse.Coord
	inv := 1 / (2 * sigma * sigma)
	for r := 0; r < len(records); {
		e := records[r]
		dirs := 1
		for r++; r < len(records) && records[r].a == e.a && records[r].b == e.b; r++ {
			dirs++
		}
		if mutual && dirs < 2 {
			continue
		}
		wt := math.Exp(-e.d * e.d * inv)
		if wt == 0 {
			wt = math.SmallestNonzeroFloat64
		}
		entries = append(entries,
			sparse.Coord{Row: int(e.a), Col: int(e.b), Val: wt},
			sparse.Coord{Row: int(e.b), Col: int(e.a), Val: wt})
	}
	m, err := sparse.NewFromCoords(len(neighbors), len(neighbors), entries)
	if err != nil {
		panic(err)
	}
	return m
}

// TestGraphAssemblyMatchesCoords: the CSR BuildGraph writes directly is
// the one the coordinate assembly built, for union and mutual graphs,
// on the engines' corpora and on the degenerate shapes: duplicated
// points (zero distances, ties with self), k = n - 1, n = 2, and a
// pinned sigma under which most weights floor to the smallest
// subnormal.
func TestGraphAssemblyMatchesCoords(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var dups []vec.Vector
	for _, p := range randomPoints(rng, 20, 3) {
		for c := 0; c < 1+rng.Intn(4); c++ {
			dups = append(dups, p)
		}
	}
	spread := randomPoints(rng, 200, 4)
	for _, p := range spread {
		p.Scale(10)
	}
	spread = append(spread, spread[7], spread[7])
	cases := []struct {
		name  string
		pts   []vec.Vector
		k     int
		sigma float64
	}{
		{"graph_id", dataset.INRIASim(14_000, 1).Points, 5, 0},
		{"mixed_rw", dataset.Mixture(dataset.MixtureConfig{
			N: 20_000, Classes: 2000, Dim: 8, WithinStd: 0.25, Separation: 3.0, Seed: 1,
		}).Points, 5, 0},
		{"random", randomPoints(rng, 500, 4), 7, 0},
		{"duplicates", dups, 5, 0},
		{"k=n-1", randomPoints(rng, 40, 2), 39, 0},
		{"n=2", randomPoints(rng, 2, 3), 1, 0},
		{"floored", spread, 6, 1e-3},
	}
	for _, c := range cases {
		neighbors := AllKNN(c.pts, searchTree(c.pts), c.k)
		for _, mutual := range []bool{false, true} {
			name := c.name + "/union"
			if mutual {
				name = c.name + "/mutual"
			}
			t.Run(name, func(t *testing.T) {
				g, err := BuildGraph(c.pts, GraphConfig{K: c.k, Mutual: mutual, Sigma: c.sigma})
				if err != nil {
					t.Fatal(err)
				}
				if want := coordsOracle(neighbors, g.Sigma, mutual); !reflect.DeepEqual(g.Adj, want) {
					t.Fatalf("CSR differs from the coordinate assembly (nnz %d, oracle %d)", g.Adj.NNZ(), want.NNZ())
				}
				if c.sigma > 0 && !slices.Contains(g.Adj.Val, math.SmallestNonzeroFloat64) {
					t.Fatal("no weight floored; the pinned sigma does not test the floor")
				}
			})
		}
	}
}

// TestAssembleOddListings: lists AllKNN never produces — a node listing
// itself, a pair listed twice from one side, a node with no list — are
// assembled as the coordinate path assembled them.
func TestAssembleOddListings(t *testing.T) {
	neighbors := [][]Neighbor{
		{{ID: 0, Dist: 0}, {ID: 2, Dist: 1}, {ID: 2, Dist: 1}},
		{{ID: 3, Dist: 0.5}},
		{{ID: 0, Dist: 1}, {ID: 3, Dist: 2}},
		{{ID: 1, Dist: 0.5}, {ID: 3, Dist: 0}},
		nil,
	}
	for _, mutual := range []bool{false, true} {
		if got, want := assemble(neighbors, 0.7, mutual), coordsOracle(neighbors, 0.7, mutual); !reflect.DeepEqual(got, want) {
			t.Fatalf("mutual=%v: got %+v, want %+v", mutual, got, want)
		}
	}
}
