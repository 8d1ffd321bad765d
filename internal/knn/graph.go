package knn

import (
	"fmt"
	"math"
	"sort"

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
// tree's lists, which are BruteForce's.
func BuildGraph(points []vec.Vector, cfg GraphConfig) (*Graph, error) {
	n := len(points)
	if n < 2 {
		return nil, fmt.Errorf("knn: need at least 2 points, got %d", n)
	}
	if cfg.K <= 0 {
		return nil, fmt.Errorf("knn: K must be positive, got %d", cfg.K)
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

	entries := buildEdges(neighbors, sigma, cfg.Mutual)
	adj, err := sparse.NewFromCoords(n, n, entries)
	if err != nil {
		return nil, err
	}
	return &Graph{Adj: adj, K: k, Sigma: sigma, Points: vec.AliasRows(points, len(points[0]))}, nil
}

// buildEdges symmetrizes the directed k-NN lists and applies the heat
// kernel. With union symmetrization an edge (i, j) exists when either
// endpoint lists the other; with mutual, only when both do.
//
// The stage runs as a three-step pipeline: parallel emission of
// normalized (min, max, dist) records into block-owned buffers, a
// serial sort + run-length dedup over the concatenated records (the
// one genuinely order-dependent step), and parallel heat-kernel
// weighting of the unique edges. Record distances are bit-equal in
// both directions (the distance kernel is symmetric term by term), so
// dedup order cannot change a weight, and the output is identical at
// any GOMAXPROCS.
func buildEdges(neighbors [][]Neighbor, sigma float64, mutual bool) []sparse.Coord {
	n := len(neighbors)
	type record struct {
		a, b int32
		d    float64
	}
	_, count := par.Blocks(n, 0)
	blocks := make([][]record, count)
	par.ForBlocks(n, 0, func(b, lo, hi int) {
		var out []record
		for i := lo; i < hi; i++ {
			for _, nb := range neighbors[i] {
				a, c := i, nb.ID
				if a == c {
					continue
				}
				if a > c {
					a, c = c, a
				}
				out = append(out, record{a: int32(a), b: int32(c), d: nb.Dist})
			}
		}
		blocks[b] = out
	})
	total := 0
	for _, bl := range blocks {
		total += len(bl)
	}
	records := make([]record, 0, total)
	for _, bl := range blocks {
		records = append(records, bl...)
	}
	sort.Slice(records, func(i, j int) bool {
		if records[i].a != records[j].a {
			return records[i].a < records[j].a
		}
		return records[i].b < records[j].b
	})
	// Run-length dedup in place: a pair listed by both directions
	// appears as two adjacent equal records.
	w := 0
	for r := 0; r < len(records); {
		e := records[r]
		dirs := 1
		r++
		for r < len(records) && records[r].a == e.a && records[r].b == e.b {
			dirs++
			r++
		}
		if mutual && dirs < 2 {
			continue
		}
		records[w] = e
		w++
	}
	uniq := records[:w]
	entries := make([]sparse.Coord, 2*len(uniq))
	inv := 1 / (2 * sigma * sigma)
	par.For(len(uniq), 0, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			e := uniq[t]
			wt := math.Exp(-e.d * e.d * inv)
			if wt == 0 {
				// Exceptionally remote pair under this bandwidth; keep a
				// tiny positive weight so the edge still connects the
				// graph component structure.
				wt = math.SmallestNonzeroFloat64
			}
			entries[2*t] = sparse.Coord{Row: int(e.a), Col: int(e.b), Val: wt}
			entries[2*t+1] = sparse.Coord{Row: int(e.b), Col: int(e.a), Val: wt}
		}
	})
	return entries
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
