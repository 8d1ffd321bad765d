package knn

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"mogul/internal/vec"
)

// Scratch holds the reusable per-worker state of SearchInto: the
// selection heap (which is also the output buffer), the batch kernel's
// distance buffer, the tree's per-dimension offsets, and the
// cell-selection scratch of the inverted-file backend. A zero Scratch
// is ready to use; one Scratch serves one goroutine at a time. Graph
// construction issues n k-NN queries back to back, so without reuse
// the per-query buffers alone show up in build profiles.
type Scratch struct {
	k      int
	out    []Neighbor
	dist   []float64
	offSq  []float64
	cellID []int
	cellD  []float64
	cand   []int
	sorter cellSorter
	// rows and nodes count the distances computed and the tree nodes
	// visited over the Scratch's life; benchmarks report them per query.
	rows, nodes int
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

// searchSubsetInto scans either all points (ids == nil) or the listed
// ids and returns the k nearest.
func searchSubsetInto(sc *Scratch, q vec.Vector, k int, points []vec.Vector, ids []int) []Neighbor {
	if k <= 0 {
		return nil
	}
	sc.reset(k)
	if ids == nil {
		sc.dist = slices.Grow(sc.dist[:0], len(points))[:len(points)]
		vec.SquaredEuclideanBatch(q, points, sc.dist)
	} else {
		sc.dist = slices.Grow(sc.dist[:0], len(ids))[:len(ids)]
		vec.SquaredEuclideanRows(q, points, ids, sc.dist)
	}
	sc.offerAll(ids, sc.dist)
	return sc.drain()
}

// The selection rule every searcher shares: the k smallest rows under
// the strict order (squared distance, id), whatever order the rows are
// offered in. While a search runs, sc.out is a max-heap under that
// order holding at most sc.k rows, with Dist the squared distance, so
// its root is the row the next better one evicts.

// reset empties the heap for a search of the k nearest.
func (sc *Scratch) reset(k int) {
	sc.k = k
	sc.out = sc.out[:0]
}

// theta is the squared distance a row must not exceed to enter: the
// root's once the heap holds k rows, +Inf before.
func (sc *Scratch) theta() float64 {
	if len(sc.out) < sc.k {
		return math.Inf(1)
	}
	return sc.out[0].Dist
}

// offerAll offers row ids[j] (row j when ids is nil) at squared
// distance dist[j], for every j. Only a row at or below the threshold
// can enter, so the loop tests that inline and calls offer for the few
// that pass.
func (sc *Scratch) offerAll(ids []int, dist []float64) {
	th := sc.theta()
	for j, d := range dist {
		if d > th {
			continue
		}
		id := j
		if ids != nil {
			id = ids[j]
		}
		sc.offer(id, d)
		th = sc.theta()
	}
	sc.rows += len(dist)
}

// offer considers row id at squared distance d.
func (sc *Scratch) offer(id int, d float64) {
	nb := Neighbor{ID: id, Dist: d}
	if len(sc.out) < sc.k {
		sc.push(nb)
	} else if after(sc.out[0], nb) {
		sc.out[0] = nb
		sc.siftDown()
	}
}

// after reports whether a ranks behind b under (squared distance, id).
func after(a, b Neighbor) bool {
	return a.Dist > b.Dist || a.Dist == b.Dist && a.ID > b.ID
}

func (sc *Scratch) push(nb Neighbor) {
	h := append(sc.out, nb)
	for j := len(h) - 1; j > 0; {
		p := (j - 1) / 2
		if !after(h[j], h[p]) {
			break
		}
		h[j], h[p] = h[p], h[j]
		j = p
	}
	sc.out = h
}

func (sc *Scratch) siftDown() {
	h := sc.out
	for i := 0; ; {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if j+1 < len(h) && after(h[j+1], h[j]) {
			j++
		}
		if !after(h[j], h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// drain sorts the held rows nearest first and turns their squared
// distances into distances.
func (sc *Scratch) drain() []Neighbor {
	slices.SortFunc(sc.out, func(a, b Neighbor) int {
		if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
			return c
		}
		return a.ID - b.ID
	})
	for i := range sc.out {
		sc.out[i].Dist = math.Sqrt(sc.out[i].Dist)
	}
	return sc.out
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
