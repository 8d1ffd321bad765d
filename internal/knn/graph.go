package knn

import (
	"fmt"
	"math"
	"slices"

	"mogul/internal/par"
	"mogul/internal/sparse"
	"mogul/internal/vec"
)

// Graph is the k-NN graph of a dataset: the object Manifold Ranking
// and every baseline operate on (paper Section 3).
type Graph struct {
	// Adj is the symmetric weighted adjacency matrix with zero
	// diagonal (no self-loops, per the paper: "there is no loop in the
	// k-NN graph").
	Adj *sparse.CSR
	// K is the neighbour count the graph was built with.
	K int
	// Sigma is the heat-kernel bandwidth used for edge weights.
	Sigma float64
	// Points are the underlying feature vectors: the builder's own,
	// aliased, or float32 rows after Narrow32 (f32.go). A graph over a
	// bare adjacency holds none.
	Points vec.Rows
}

// GraphConfig controls graph construction.
type GraphConfig struct {
	// K is the number of nearest neighbours per node; the paper uses
	// 5-20 and evaluates with 5. Required.
	K int
	// Mutual, when true, keeps an edge only when each endpoint is in
	// the other's k-NN list; the default (false) is the standard union
	// symmetrization.
	Mutual bool
	// Sigma overrides the heat-kernel bandwidth. When 0, sigma is set
	// to the standard deviation of all observed k-NN distances
	// (Section 3: "sigma is the standard variation of the function
	// scores").
	Sigma float64
	// Approximate, ApproxThreshold, NProbe and Seed are kept and
	// ignored. They configured an inverted-file search that large inputs
	// could opt into; every graph is now exact. They stay because the
	// BCFG record (codec.go) still carries them, so a container saved
	// with them re-saves byte for byte.
	Approximate     bool
	ApproxThreshold int
	NProbe          int
	Seed            int64
}

// BuildGraph constructs the exact k-NN graph over the points: the
// tree's lists, which are BruteForce's. The points must share one
// non-zero width; any values are accepted, NaN and ±Inf included.
func BuildGraph(points []vec.Vector, cfg GraphConfig) (*Graph, error) {
	n := len(points)
	if n < 2 {
		return nil, fmt.Errorf("knn: need at least 2 points, got %d", n)
	}
	if cfg.K <= 0 {
		return nil, fmt.Errorf("knn: K must be positive, got %d", cfg.K)
	}
	dim := len(points[0])
	if dim == 0 {
		return nil, fmt.Errorf("knn: need non-empty feature vectors")
	}
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("knn: point %d has dim %d, want %d", i, len(p), dim)
		}
	}
	k := cfg.K
	if k > n-1 {
		k = n - 1
	}
	return graphFromNeighbors(points, AllKNN(points, searchTree(points), k), k, cfg)
}

// graphFromNeighbors assembles the graph from the directed k-NN lists.
func graphFromNeighbors(points []vec.Vector, neighbors [][]Neighbor, k int, cfg GraphConfig) (*Graph, error) {
	n := len(points)
	// Choose sigma from the distribution of k-NN distances unless the
	// caller pinned it.
	sigma := cfg.Sigma
	if sigma <= 0 {
		dists := make([]float64, 0, n*k)
		for _, nbrs := range neighbors {
			for _, nb := range nbrs {
				dists = append(dists, nb.Dist)
			}
		}
		sigma = vec.Stddev(dists)
		if sigma <= 0 {
			// Degenerate data (all points identical): any positive
			// bandwidth yields weight 1 on every edge.
			sigma = 1
		}
	}

	adj := assemble(neighbors, sigma, cfg.Mutual)
	return &Graph{Adj: adj, K: k, Sigma: sigma, Points: vec.AliasRows(points, len(points[0]))}, nil
}

// assemble symmetrizes the directed k-NN lists, applies the heat kernel
// and writes the symmetric CSR. With union symmetrization an edge (i, j)
// exists when either endpoint lists the other; with mutual, only when
// both do.
//
// A counting pass files every listing of a pair under its lower
// endpoint a, keeping the upper endpoint b and the distance. Sorting
// each bucket by b (in parallel; a bucket holds a few dozen listings)
// puts the listings of one edge in a run, and the run becomes one
// weighted edge; under mutual only a run of two or more does. Record
// distances are bit-equal in both directions (the distance kernel is
// symmetric term by term), so which listing of a run is kept cannot
// change a weight. Visiting the edges in ascending (a, b) and appending
// b to row a and a to row b leaves every row's columns ascending: row r
// first receives its lower neighbours in ascending order, from the
// buckets before its own, then its own bucket's upper ones. That is the
// CSR sparse.NewFromCoords builds from the edges' coordinates, at any
// GOMAXPROCS.
func assemble(neighbors [][]Neighbor, sigma float64, mutual bool) *sparse.CSR {
	n := len(neighbors)
	// A listing's v is its distance until its bucket is weighed, then the
	// edge weight.
	type listing struct {
		b int32
		v float64
	}
	start := make([]int, n+1) // bucket a is listings[start[a]:start[a+1]]
	for i, nbrs := range neighbors {
		for _, nb := range nbrs {
			if nb.ID != i {
				start[min(i, nb.ID)+1]++
			}
		}
	}
	for a := 0; a < n; a++ {
		start[a+1] += start[a]
	}
	listings := make([]listing, start[n])
	end := append([]int(nil), start[:n]...)
	for i, nbrs := range neighbors {
		for _, nb := range nbrs {
			a, b := i, nb.ID
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			listings[end[a]] = listing{b: int32(b), v: nb.Dist}
			end[a]++
		}
	}
	// Sort, dedup and weigh each bucket in place; afterwards its edges
	// are listings[start[a]:end[a]].
	inv := 1 / (2 * sigma * sigma)
	par.For(n, 0, func(lo, hi int) {
		for a := lo; a < hi; a++ {
			bk := listings[start[a]:end[a]]
			slices.SortFunc(bk, func(x, y listing) int { return int(x.b - y.b) })
			w := 0
			for r := 0; r < len(bk); {
				e := bk[r]
				dirs := 1
				for r++; r < len(bk) && bk[r].b == e.b; r++ {
					dirs++
				}
				if mutual && dirs < 2 {
					continue
				}
				wt := math.Exp(-e.v * e.v * inv)
				if wt == 0 {
					// Exceptionally remote pair under this bandwidth; keep a
					// tiny positive weight so the edge still connects the
					// graph component structure.
					wt = math.SmallestNonzeroFloat64
				}
				bk[w] = listing{b: e.b, v: wt}
				w++
			}
			end[a] = start[a] + w
		}
	})
	m := &sparse.CSR{RowPtr: make([]int, n+1), Rows: n, Cols: n}
	for a := 0; a < n; a++ {
		for _, e := range listings[start[a]:end[a]] {
			m.RowPtr[a+1]++
			m.RowPtr[e.b+1]++
		}
	}
	for r := 0; r < n; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	m.Col = make([]int, m.RowPtr[n])
	m.Val = make([]float64, m.RowPtr[n])
	next := append([]int(nil), m.RowPtr[:n]...)
	for a := 0; a < n; a++ {
		for _, e := range listings[start[a]:end[a]] {
			b := int(e.b)
			m.Col[next[a]], m.Val[next[a]] = b, e.v
			next[a]++
			m.Col[next[b]], m.Val[next[b]] = a, e.v
			next[b]++
		}
	}
	return m
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return g.Adj.Rows }

// Degrees returns C_ii = sum_j A_ij, the diagonal of the paper's
// matrix C.
func (g *Graph) Degrees() []float64 { return g.Adj.RowSums() }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.Adj.NNZ() / 2 }

// Neighbors returns the adjacency list of node i: column ids and
// weights. In f64 mode the slices alias graph storage; in f32 mode the
// weights are widened into a fresh slice.
func (g *Graph) Neighbors(i int) ([]int, []float64) {
	if g.Adj.F32() {
		cols, v32 := g.Adj.Row32(i)
		return cols, vec.Widen64(nil, v32)
	}
	return g.Adj.Row(i)
}

// Components labels connected components with breadth-first search and
// returns (labels, count). Manifold Ranking scores are zero outside
// the query's component; experiments use this to report connectivity.
func (g *Graph) Components() ([]int, int) {
	n := g.Len()
	labels := make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	next := 0
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if labels[s] != -1 {
			continue
		}
		labels[s] = next
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			lo, hi := g.Adj.RowPtr[u], g.Adj.RowPtr[u+1]
			for _, v := range g.Adj.Col[lo:hi] {
				if labels[v] == -1 {
					labels[v] = next
					queue = append(queue, v)
				}
			}
		}
		next++
	}
	return labels, next
}

// NormalizedAdjacency returns S = C^{-1/2} A C^{-1/2}, the symmetric
// normalization at the heart of the Manifold Ranking system matrix
// (Equation 2). Isolated nodes (degree 0) keep zero rows.
func (g *Graph) NormalizedAdjacency() *sparse.CSR {
	deg := g.Degrees()
	invSqrt := make([]float64, len(deg))
	for i, d := range deg {
		if d > 0 {
			invSqrt[i] = 1 / math.Sqrt(d)
		}
	}
	s := g.Adj.Clone()
	for i := 0; i < s.Rows; i++ {
		lo, hi := s.RowPtr[i], s.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			s.Val[k] *= invSqrt[i] * invSqrt[s.Col[k]]
		}
	}
	return s
}
