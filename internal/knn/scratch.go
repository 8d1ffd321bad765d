package knn

import (
	"math"
	"slices"
	"sort"

	"mogul/internal/topk"
	"mogul/internal/vec"
)

// Scratch holds the reusable per-worker state of SearchInto: the top-k
// collectors, the neighbour output buffer, the batch kernel's distance
// buffer, and the cell-selection scratch of the inverted-file backends.
// A zero Scratch is ready to use; one Scratch serves one goroutine at a
// time. Graph construction
// issues n k-NN queries back to back, so without reuse the per-query
// collector allocation alone shows up in build profiles.
type Scratch struct {
	col    topk.Collector
	out    []Neighbor
	cellID []int
	cellD  []float64
	cand   []int
	dist   []float64
	sorter cellSorter
}

// sortCells orders the loaded cell scratch by ascending distance.
func (sc *Scratch) sortCells() {
	sc.sorter.id, sc.sorter.d = sc.cellID, sc.cellD
	sort.Sort(&sc.sorter)
}

// IntoSearcher is a Searcher whose queries can run allocation-lean by
// reusing caller-owned scratch. The returned slice aliases the scratch
// and is valid until the next SearchInto call with the same Scratch.
// All in-package searchers implement it; Search and SearchInto return
// identical results by construction (Search delegates to SearchInto
// with a throwaway Scratch).
type IntoSearcher interface {
	Searcher
	SearchInto(sc *Scratch, q vec.Vector, k int) []Neighbor
}

// searchSubsetInto is searchSubset against caller-owned scratch.
func searchSubsetInto(sc *Scratch, q vec.Vector, k int, points []vec.Vector, ids []int) []Neighbor {
	if k <= 0 {
		return nil
	}
	sc.col.Reset(k)
	if ids == nil {
		sc.dist = slices.Grow(sc.dist[:0], len(points))[:len(points)]
		vec.SquaredEuclideanBatch(q, points, sc.dist)
		for i, d := range sc.dist {
			sc.col.Offer(i, -d)
		}
	} else {
		sc.dist = slices.Grow(sc.dist[:0], len(ids))[:len(ids)]
		vec.SquaredEuclideanRows(q, points, ids, sc.dist)
		for j, i := range ids {
			sc.col.Offer(i, -sc.dist[j])
		}
	}
	return neighborsFromItems(sc, sc.col.Drain())
}

// neighborsFromItems converts collector items (negated squared
// distances) into Neighbors in sc.out.
func neighborsFromItems(sc *Scratch, items []topk.Item) []Neighbor {
	out := sc.out[:0]
	for _, it := range items {
		out = append(out, Neighbor{ID: it.ID, Dist: math.Sqrt(-it.Score)})
	}
	sc.out = out
	return out
}

// cellSorter orders inverted-file cells by ascending distance with ids
// breaking ties, over the parallel slices held in Scratch (a closure
// over sort.Slice would allocate per query).
type cellSorter struct {
	id []int
	d  []float64
}

func (c *cellSorter) Len() int { return len(c.id) }
func (c *cellSorter) Less(i, j int) bool {
	if c.d[i] != c.d[j] {
		return c.d[i] < c.d[j]
	}
	return c.id[i] < c.id[j]
}
func (c *cellSorter) Swap(i, j int) {
	c.id[i], c.id[j] = c.id[j], c.id[i]
	c.d[i], c.d[j] = c.d[j], c.d[i]
}

// fillCellDistances loads the per-cell (id, distance) scratch for an
// inverted-file query.
func (sc *Scratch) fillCellDistances(q vec.Vector, centroids []vec.Vector) {
	n := len(centroids)
	if cap(sc.cellID) < n {
		sc.cellID = make([]int, n)
		sc.cellD = make([]float64, n)
	}
	sc.cellID = sc.cellID[:n]
	sc.cellD = sc.cellD[:n]
	for i := range sc.cellID {
		sc.cellID[i] = i
	}
	vec.SquaredEuclideanBatch(q, centroids, sc.cellD)
}

var _ sort.Interface = (*cellSorter)(nil)
