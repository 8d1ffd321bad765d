// Package knn builds the k-nearest-neighbour graphs that Manifold
// Ranking runs on (paper Section 3): nodes are images, an undirected
// edge connects k-nearest neighbours, and edge weights follow the heat
// kernel A_ij = exp(-d^2(u_i,u_j) / (2 sigma^2)).
//
// Every searcher selects the k smallest rows under one strict order,
// (squared distance, id), so an answer never depends on the order rows
// are visited in, and so does every engine's attach: Scratch's
// selection is the one place the rule is written. Tree, a k-d tree, is
// BuildGraph's search and the spectral engine's attach: it returns
// BruteForce's answers, bit for bit, while computing ~80 of 20000
// distances per query on the d = 8 mixture (BenchmarkAllKNN has the
// other shapes). From d = 32 the graph build's all-points search walks
// the queries of one leaf through the tree together, so each leaf they
// reach is read from memory once and scanned by all of them while it is
// in cache. Each query keeps its own selection and plane offsets and
// makes its solo visits, in its solo order, so its θ at every bound is
// its solo θ: its answer, its rows scanned and its nodes visited are
// what it computes alone. What it computes at a leaf differs: a query
// whose selection is full screens the leaf's rows by the norm expansion
// ‖q‖² + ‖p‖² − 2·q·p, its dot products taken two queries at a time by
// a fused kernel, and pays the exact distance only for the rows the
// screen cannot rule out: ~99 of the 1,759 rows a query scans at
// graph_id's shape (INRIASim, n = 14,000, d = 128). A row ruled out
// could not have entered, so every answer keeps its bits.
// BruteForce, the O(n d) scan per query, is the oracle the tree is
// tested against. anchors.go holds EMR's anchor graph, whose attach
// sweeps its anchors into the same selection.
// Every graph is exact: at every corpus shape the engines build,
// INRIASim at d = 128 included, the tree beat an inverted-file index
// (docs/PERFORMANCE.md, "One graph builder"). A Graph keeps the feature
// vectors it was built over as vec.Rows — the builder's own, aliased,
// or float32 rows after Narrow32 — and writes them through vec.Rows's
// point-matrix record (codec.go).
package knn

import (
	"mogul/internal/par"
	"mogul/internal/vec"
)

// Neighbor is one nearest-neighbour search result.
type Neighbor struct {
	// ID is the index of the neighbouring point.
	ID int
	// Dist is the Euclidean distance to the query; in a selection read
	// through Scratch.Sorted it is the key that was offered.
	Dist float64
}

// Searcher answers k-nearest-neighbour queries over a fixed point set.
type Searcher interface {
	// Search returns the k points nearest to q in ascending distance
	// order. Fewer than k results are returned only when the indexed
	// set is smaller than k.
	Search(q vec.Vector, k int) []Neighbor
}

// BruteForce is the exact O(n d) per-query scan, the oracle of Tree.
type BruteForce struct {
	points []vec.Vector
}

// NewBruteForce indexes the given points (no copy is taken).
func NewBruteForce(points []vec.Vector) *BruteForce {
	return &BruteForce{points: points}
}

// Search returns the k exact nearest neighbours of q.
func (b *BruteForce) Search(q vec.Vector, k int) []Neighbor {
	var sc Scratch
	return b.SearchInto(&sc, q, k)
}

// SearchInto is Search against caller-owned scratch; the result
// aliases sc and is valid until its next use.
func (b *BruteForce) SearchInto(sc *Scratch, q vec.Vector, k int) []Neighbor {
	return scanInto(sc, q, k, b.points)
}

// AllKNN computes the k nearest neighbours of every indexed point
// (excluding the point itself), in parallel across queries. Each
// point's neighbour list is a pure function of (points, s, k), so the
// output is identical at every GOMAXPROCS, and every list is carved
// from one n*k backing array. The graph build's tree searcher runs its
// own all-points search, which walks a leaf's queries through the tree
// together (allKNN) and gives each query its solo answer. Other
// searchers that implement IntoSearcher (BruteForce does) run with
// per-block scratch, so their n queries allocate nothing per query.
func AllKNN(points []vec.Vector, s Searcher, k int) [][]Neighbor {
	if t, ok := s.(*treeSearcher); ok {
		return t.allKNN(points, k, nil)
	}
	n := len(points)
	out := make([][]Neighbor, n)
	backing := make([]Neighbor, n*k)
	into, reuse := s.(IntoSearcher)
	par.For(n, 16, func(lo, hi int) {
		var sc Scratch
		for i := lo; i < hi; i++ {
			var res []Neighbor
			if reuse {
				res = into.SearchInto(&sc, points[i], k+1)
			} else {
				res = s.Search(points[i], k+1)
			}
			out[i] = others(backing[i*k:i*k:(i+1)*k], res, i, k)
		}
	})
	return out
}

// others appends to nbrs the first k results of a k+1 search other
// than the query self. A duplicate point may tie with self, so it
// filters by ID rather than by distance.
func others(nbrs, res []Neighbor, self, k int) []Neighbor {
	for _, nb := range res {
		if nb.ID == self {
			continue
		}
		nbrs = append(nbrs, nb)
		if len(nbrs) == k {
			break
		}
	}
	return nbrs
}
