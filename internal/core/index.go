package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"mogul/internal/cholesky"
	"mogul/internal/cluster"
	"mogul/internal/knn"
	"mogul/internal/sparse"
	"mogul/internal/vec"
)

// DefaultAlpha is the Manifold Ranking parameter used throughout the
// paper's evaluation (Section 5: alpha = 0.99, following [25, 26]).
const DefaultAlpha = 0.99

// Ordering selects how nodes are permuted before factorization.
type Ordering int

const (
	// OrderingMogul is Algorithm 1: clustering-driven permutation.
	OrderingMogul Ordering = iota
	// OrderingRandom permutes nodes uniformly at random (the "Random"
	// ablation of Figures 6 and 8).
	OrderingRandom
	// OrderingIdentity keeps input order (tests, ablations).
	OrderingIdentity
	// OrderingRCM applies Reverse Cuthill-McKee: a bandwidth-reducing
	// ordering from classical sparse solvers, included to separate
	// "any good ordering helps the factorization" from "Algorithm 1's
	// cluster geometry enables restricted substitution and pruning"
	// (RCM yields no cluster structure, so no pruning).
	OrderingRCM
)

// Options configures index construction.
type Options struct {
	// Alpha is the Manifold Ranking damping parameter in (0, 1);
	// defaults to DefaultAlpha.
	Alpha float64
	// Exact selects MogulE: complete (Modified) Cholesky factorization
	// with fill-in, giving exact Manifold Ranking scores
	// (Section 4.6.1).
	Exact bool
	// Ordering selects the node permutation strategy.
	Ordering Ordering
	// Seed drives OrderingRandom.
	Seed int64
	// MinPivot overrides the factorization pivot clamp; <= 0 means the
	// package default.
	MinPivot float64
	// Cluster configures the modularity optimizer; zero value is fine.
	Cluster cluster.Config
	// Graph records how the k-NN graph was built so Compact can rebuild
	// it over the merged point set; nil disables compaction (Insert and
	// Delete still work, the delta just never folds in).
	Graph *knn.GraphConfig
	// AutoCompactFraction triggers an automatic Compact from Insert
	// once the pending delta (inserted slots plus base tombstones)
	// exceeds this fraction of the base size; 0 disables.
	AutoCompactFraction float64
	// F32 selects mixed-precision storage: the build runs entirely in
	// float64 (topology, permutation, and factor values are computed
	// bit-identically to the default mode), then the factor values,
	// graph points, and adjacency weights are narrowed once to float32.
	// All query-time accumulation stays float64; only storage rounds.
	F32 bool
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.Alpha == 0 {
		out.Alpha = DefaultAlpha
	}
	return out
}

// Stats reports precomputation outcomes; Section 5.2 of the paper
// reports several of these (nnz(L), precompute wall time, cluster
// counts).
type Stats struct {
	// NumNodes is n.
	NumNodes int
	// NumEdges is the undirected edge count of the k-NN graph.
	NumEdges int
	// NumClusters is N, including the border cluster C_N.
	NumClusters int
	// BorderSize is |C_N|.
	BorderSize int
	// FactorNNZ is the number of strictly-lower non-zeros in L.
	FactorNNZ int
	// ClampedPivots counts diagonal entries clamped during
	// factorization (0 in healthy runs).
	ClampedPivots int
	// ClusterTime, PermuteTime and FactorTime break down precompute
	// wall time (Figure 8 reports the total).
	ClusterTime, PermuteTime, FactorTime time.Duration
	// Modularity of the partition found by the clustering step.
	Modularity float64
}

// PrecomputeTime returns the total precomputation wall time.
func (s Stats) PrecomputeTime() time.Duration {
	return s.ClusterTime + s.PermuteTime + s.FactorTime
}

// Index is a prebuilt Mogul search structure over one k-NN graph. All
// precomputation is query-independent (Lemma 2 discussion): the same
// index serves any query node and any answer count k. An Index is
// immutable once built (the lazily derived tables below are guarded by
// their Once), so any number of searches may read it concurrently with
// no lock; online updates live in an Overlay (overlay.go) the caller
// owns, and a compaction builds a different Index.
type Index struct {
	// scratchPool recycles query-engine scratches across the pool-based
	// entry points so their steady state allocates nothing.
	scratchPool sync.Pool

	graph  *knn.Graph
	alpha  float64
	exact  bool
	layout *Layout
	factor *cholesky.Factor
	bounds *boundTables
	stats  Stats

	// opts remembers how this index was built (opts.Graph included, nil
	// for an external graph or a pre-v3 file) so a compaction can
	// reproduce the build over the merged point set.
	opts Options

	// Out-of-sample support (Section 4.6.2), built lazily by
	// ensureOOS: per-cluster mean features and member lists in
	// original ids.
	oosOnce    sync.Once
	oosMeans   []vec.Vector
	oosMembers [][]int

	// Lazily cached permuted system matrix for CG-based exact solves
	// (ExactScoresCG); nil until first use.
	wOnce sync.Once
	w     *sparse.CSR
}

// NewIndex builds a Mogul index for the graph: Algorithm 1 permutation,
// W = I - alpha C'^{-1/2} A' C'^{-1/2}, the (incomplete or complete)
// LDL^T factor, and the upper-bound tables of Section 4.3.
func NewIndex(g *knn.Graph, opts Options) (*Index, error) {
	o := opts.withDefaults()
	if o.Alpha <= 0 || o.Alpha >= 1 {
		return nil, fmt.Errorf("core: alpha must lie in (0,1), got %g", o.Alpha)
	}
	n := g.Len()
	if n == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}

	idx := &Index{graph: g, alpha: o.Alpha, exact: o.Exact, opts: o}
	idx.stats.NumNodes = n
	idx.stats.NumEdges = g.NumEdges()

	// Step 1: node permutation (Algorithm 1 or an ablation ordering).
	t0 := time.Now()
	switch o.Ordering {
	case OrderingMogul:
		cl, err := cluster.Louvain(g.Adj, o.Cluster)
		if err != nil {
			return nil, fmt.Errorf("core: clustering: %w", err)
		}
		idx.stats.ClusterTime = time.Since(t0)
		idx.stats.Modularity = cl.Modularity
		t1 := time.Now()
		layout, err := BuildLayout(g.Adj, cl)
		if err != nil {
			return nil, err
		}
		idx.layout = layout
		idx.stats.PermuteTime = time.Since(t1)
	case OrderingRandom:
		idx.layout = RandomLayout(n, o.Seed)
		idx.stats.PermuteTime = time.Since(t0)
	case OrderingIdentity:
		idx.layout = IdentityLayout(n)
		idx.stats.PermuteTime = time.Since(t0)
	case OrderingRCM:
		idx.layout = RCMLayout(g.Adj)
		idx.stats.PermuteTime = time.Since(t0)
	default:
		return nil, fmt.Errorf("core: unknown ordering %d", o.Ordering)
	}
	idx.stats.NumClusters = idx.layout.NumClusters
	idx.stats.BorderSize = idx.layout.Size(idx.layout.Border())

	// Step 2: permuted system matrix and factorization.
	t2 := time.Now()
	w, err := BuildSystemMatrix(g.Adj, idx.layout.Perm, o.Alpha)
	if err != nil {
		return nil, err
	}
	if o.Exact {
		idx.factor, err = cholesky.CompleteLDL(w, o.MinPivot)
	} else {
		idx.factor, err = cholesky.IncompleteLDL(w, o.MinPivot)
	}
	if err != nil {
		return nil, fmt.Errorf("core: factorization: %w", err)
	}
	idx.stats.FactorTime = time.Since(t2)
	idx.stats.FactorNNZ = idx.factor.NNZ()
	idx.stats.ClampedPivots = idx.factor.Clamped

	// Mixed precision: narrow the factor BEFORE deriving the bound
	// tables so bounds computed here and bounds recomputed after a
	// Save/Load round trip both derive from the same f32 values —
	// queries stay bit-identical across persistence.
	if o.F32 {
		idx.factor.Narrow32()
	}

	// Step 3: upper-bound tables (Definition 1; precomputable in O(n),
	// Lemma 8 discussion).
	idx.bounds = buildBoundTables(idx.factor, idx.layout)
	if o.F32 {
		g.Narrow32()
	}
	return idx, nil
}

// BuildSystemMatrix assembles W = I - alpha * C'^{-1/2} A' C'^{-1/2}
// in the permuted node order (Equation 3). Degrees are taken from the
// full adjacency, so isolated nodes get W_ii = 1 and an empty row
// otherwise. W is written row by row, each the row of A' with the
// diagonal merged in place. The columns of A' are strictly increasing
// within a row, so each entry of W has one term, stored as 0 + v, and
// the diagonal is 1, or 1 + v over a self loop (tolerated, though k-NN
// graphs have none, Section 3): the sums, and so the bits, a
// coordinate assembly gives. The float64 conversion rounds each
// product before that addition, which a fused multiply-add would not.
func BuildSystemMatrix(adj *sparse.CSR, perm *sparse.Permutation, alpha float64) (*sparse.CSR, error) {
	aPerm, err := perm.PermuteSym(adj)
	if err != nil {
		return nil, err
	}
	deg := aPerm.RowSums()
	invSqrt := make([]float64, len(deg))
	for i, d := range deg {
		if d > 0 {
			invSqrt[i] = 1 / math.Sqrt(d)
		}
	}
	n := aPerm.Rows
	w := &sparse.CSR{
		RowPtr: make([]int, n+1),
		Col:    make([]int, 0, aPerm.NNZ()+n),
		Val:    make([]float64, 0, aPerm.NNZ()+n),
		Rows:   n,
		Cols:   n,
	}
	for i := 0; i < n; i++ {
		cols, vals := aPerm.Row(i)
		diag := false
		for k, j := range cols {
			v := float64(-alpha * vals[k] * invSqrt[i] * invSqrt[j])
			switch {
			case j == i:
				w.Col, w.Val = append(w.Col, i), append(w.Val, 1+v)
				diag = true
				continue
			case j > i && !diag:
				w.Col, w.Val = append(w.Col, i), append(w.Val, 1)
				diag = true
			}
			w.Col, w.Val = append(w.Col, j), append(w.Val, 0+v)
		}
		if !diag {
			w.Col, w.Val = append(w.Col, i), append(w.Val, 1)
		}
		w.RowPtr[i+1] = len(w.Col)
	}
	return w, nil
}

// Graph returns the underlying k-NN graph.
func (ix *Index) Graph() *knn.Graph { return ix.graph }

// Alpha returns the Manifold Ranking parameter of this index.
func (ix *Index) Alpha() float64 { return ix.alpha }

// Exact reports whether the index uses the complete factorization
// (MogulE).
func (ix *Index) Exact() bool { return ix.exact }

// Factor exposes the LDL^T factor (read-only use).
func (ix *Index) Factor() *cholesky.Factor { return ix.factor }

// Stats returns precomputation statistics.
func (ix *Index) Stats() Stats { return ix.stats }

// BuildOptions returns the recipe this index was built with; its Graph
// is nil when the library did not build the k-NN graph itself (an
// external graph, or a pre-v3 file), in which case the build cannot be
// reproduced over another point set.
func (ix *Index) BuildOptions() Options { return ix.opts }

// ClearTimings zeroes the wall-clock fields of the build statistics.
// Everything else an index serializes is a deterministic function of
// (points, options) at any GOMAXPROCS; the timings are the one
// diagnostic that is not. Clearing them makes Save output byte-stable,
// which reproducible-snapshot pipelines and the build-determinism
// tests rely on. Not safe concurrently with searches or saves.
func (ix *Index) ClearTimings() {
	ix.stats.ClusterTime = 0
	ix.stats.PermuteTime = 0
	ix.stats.FactorTime = 0
}
