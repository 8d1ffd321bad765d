// Package knn builds the k-nearest-neighbour graphs that Manifold
// Ranking runs on (paper Section 3): nodes are images, an undirected
// edge connects k-nearest neighbours, and edge weights follow the heat
// kernel A_ij = exp(-d^2(u_i,u_j) / (2 sigma^2)).
//
// Every searcher selects the k smallest rows under one strict order,
// (squared distance, id), so an answer never depends on the order rows
// are visited in. Tree, a k-d tree, is the exact path of BuildGraph: it
// returns BruteForce's answers, bit for bit, while computing ~100 of
// 20000 distances per query on the d = 8 mixture (BenchmarkAllKNN has
// the other shapes). BruteForce, the O(n d) scan per query, is the
// oracle the tree is tested against.
// IVF is an inverted-file index with a k-means coarse quantizer, the
// standard database-side structure for approximate nearest-neighbour
// search at the paper's INRIA scale; it trades a small recall loss for
// near-linear construction time (BenchmarkAllKNN's ivf rows report the
// share of the exact lists it recovers). A Graph keeps the feature
// vectors it was built over as vec.Rows — the builder's own, aliased,
// or float32 rows after Narrow32 — and writes them through vec.Rows's
// point-matrix record (codec.go).
package knn

import (
	"fmt"
	"math"

	"mogul/internal/kmeans"
	"mogul/internal/par"
	"mogul/internal/vec"
)

// Neighbor is one nearest-neighbour search result.
type Neighbor struct {
	// ID is the index of the neighbouring point.
	ID int
	// Dist is the Euclidean distance to the query.
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
	return searchSubsetInto(sc, q, k, b.points, nil)
}

// IVF is an inverted-file approximate nearest-neighbour index: points
// are bucketed by their nearest k-means centroid and queries probe only
// the NProbe closest buckets.
type IVF struct {
	points    []vec.Vector
	centroids []vec.Vector
	lists     [][]int
	// NProbe is the number of closest inverted lists scanned per query.
	NProbe int
}

// IVFConfig controls index construction.
type IVFConfig struct {
	// NList is the number of inverted lists (k-means cells); when 0 it
	// defaults to sqrt(n) rounded up, the usual heuristic.
	NList int
	// NProbe is the number of lists probed per query (default 8).
	NProbe int
	// Seed drives the k-means quantizer.
	Seed int64
}

// NewIVF builds an IVF index over the points.
func NewIVF(points []vec.Vector, cfg IVFConfig) (*IVF, error) {
	n := len(points)
	if n == 0 {
		return nil, fmt.Errorf("knn: cannot index zero points")
	}
	nlist := cfg.NList
	if nlist <= 0 {
		nlist = int(math.Ceil(math.Sqrt(float64(n))))
	}
	if nlist > n {
		nlist = n
	}
	nprobe := cfg.NProbe
	if nprobe <= 0 {
		nprobe = 8
	}
	if nprobe > nlist {
		nprobe = nlist
	}
	km, err := kmeans.Run(points, kmeans.Config{K: nlist, Seed: cfg.Seed, MaxIter: 12})
	if err != nil {
		return nil, fmt.Errorf("knn: quantizer training: %w", err)
	}
	lists := make([][]int, len(km.Centroids))
	for i, c := range km.Assign {
		lists[c] = append(lists[c], i)
	}
	return &IVF{points: points, centroids: km.Centroids, lists: lists, NProbe: nprobe}, nil
}

// Search returns approximately the k nearest neighbours of q, scanning
// the NProbe inverted lists whose centroids are closest to q.
func (ix *IVF) Search(q vec.Vector, k int) []Neighbor {
	var sc Scratch
	return ix.SearchInto(&sc, q, k)
}

// SearchInto is Search against caller-owned scratch; the result
// aliases sc and is valid until its next use.
func (ix *IVF) SearchInto(sc *Scratch, q vec.Vector, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	sc.fillCellDistances(q, ix.centroids)
	sc.sortCells()
	cand := sc.cand[:0]
	probes := ix.NProbe
	for p := 0; p < len(sc.cellID); p++ {
		if p >= probes && len(cand) >= k {
			break
		}
		cand = append(cand, ix.lists[sc.cellID[p]]...)
	}
	sc.cand = cand
	return searchSubsetInto(sc, q, k, ix.points, cand)
}

// AllKNN computes the k nearest neighbours of every indexed point
// (excluding the point itself), in parallel across queries. Each
// point's neighbour list is a pure function of (points, s, k), so the
// output is identical at every GOMAXPROCS. Searchers that implement
// IntoSearcher (all in-package ones do) run with per-block scratch, so
// the n queries of a build allocate nothing per query, and every list is
// carved from one n*k backing array.
func AllKNN(points []vec.Vector, s Searcher, k int) [][]Neighbor {
	n := len(points)
	out := make([][]Neighbor, n)
	backing := make([]Neighbor, n*k)
	into, reuse := s.(IntoSearcher)
	par.For(n, 16, func(lo, hi int) {
		var sc Scratch
		for i := lo; i < hi; i++ {
			// Ask for k+1 and drop self; a duplicate point may tie
			// with self, so filter by ID rather than by distance.
			var res []Neighbor
			if reuse {
				res = into.SearchInto(&sc, points[i], k+1)
			} else {
				res = s.Search(points[i], k+1)
			}
			nbrs := backing[i*k : i*k : (i+1)*k]
			for _, nb := range res {
				if nb.ID == i {
					continue
				}
				nbrs = append(nbrs, nb)
				if len(nbrs) == k {
					break
				}
			}
			out[i] = nbrs
		}
	})
	return out
}
