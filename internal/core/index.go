package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
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
// index serves any query node and any answer count k. Searches run
// concurrently (read lock); Insert/Delete/Compact (dynamic.go) mutate
// the delta layer or swap the base under the write lock.
type Index struct {
	// mu guards the delta layer and the base-structure pointers below
	// (Compact swaps them). Searches hold it in read mode, so they run
	// concurrently and never lock against each other.
	mu sync.RWMutex
	// compactMu serializes mutators (Insert/Delete/Compact) so a
	// compaction cannot lose a concurrent insert.
	compactMu sync.Mutex

	// epoch identifies the current base geometry for query-engine
	// scratch revalidation (engine.go): bumped under the write lock
	// whenever the base structures are swapped (Compact). Starts at 1
	// so the zero Scratch is always stale. Read under at least the
	// read lock.
	epoch uint64
	// version counts every visible mutation — Insert, Delete, and
	// Compact all bump it (epoch moves only on Compact), always before
	// the mutation's write lock is released, so a reader that observes
	// a mutated index also observes the new version. Readers load it
	// without any lock; it is the cheap "has anything changed?" signal
	// behind version-stamped result caches (the serve package).
	version atomic.Uint64
	// scratchPool recycles query-engine scratches across searches so
	// the steady-state hot path allocates nothing; stale scratches
	// (pooled across a Compact) are caught by the epoch check.
	scratchPool sync.Pool

	// log records every logged mutation since logStart (deltalog.go):
	// the replication feed followers tail via EntriesSince. logStart is
	// the version the retained log is anchored at (entries cover
	// (logStart, version]); 0 means "nothing logged or truncated yet",
	// i.e. anchored at the initial version. Both guarded by mu.
	log      []LogEntry
	logStart uint64

	graph  *knn.Graph
	alpha  float64
	exact  bool
	layout *Layout
	factor *cholesky.Factor
	bounds *boundTables
	stats  Stats

	// opts and graphCfg remember how this index was built so Compact
	// can reproduce the build over the merged point set.
	opts     Options
	graphCfg *knn.GraphConfig

	// delta is the dynamic-update layer (dynamic.go).
	delta delta

	// Out-of-sample support (Section 4.6.2), built lazily by
	// ensureOOS: per-cluster mean features and member lists in
	// original ids. The Once is a pointer so Compact can re-arm it.
	oosOnce    *sync.Once
	oosMeans   []vec.Vector
	oosMembers [][]int

	// Lazily cached permuted system matrix for CG-based exact solves
	// (ExactScoresCG); nil until first use.
	wOnce *sync.Once
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

	idx := &Index{
		graph:    g,
		alpha:    o.Alpha,
		exact:    o.Exact,
		opts:     o,
		graphCfg: o.Graph,
		oosOnce:  new(sync.Once),
		wOnce:    new(sync.Once),
		epoch:    1,
	}
	idx.version.Store(1)
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
// otherwise.
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
	entries := make([]sparse.Coord, 0, aPerm.NNZ()+n)
	for i := 0; i < n; i++ {
		entries = append(entries, sparse.Coord{Row: i, Col: i, Val: 1})
		cols, vals := aPerm.Row(i)
		for k, j := range cols {
			if j == i {
				// Self loops are disallowed in k-NN graphs (Section 3)
				// but tolerate them defensively by folding into the
				// diagonal.
				entries = append(entries, sparse.Coord{Row: i, Col: i, Val: -alpha * vals[k] * invSqrt[i] * invSqrt[i]})
				continue
			}
			entries = append(entries, sparse.Coord{Row: i, Col: j, Val: -alpha * vals[k] * invSqrt[i] * invSqrt[j]})
		}
	}
	return sparse.NewFromCoords(n, n, entries)
}

// Graph returns the underlying k-NN graph. After a Compact the
// returned pointer refers to the pre-compaction graph; call again for
// the current one.
func (ix *Index) Graph() *knn.Graph {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.graph
}

// Alpha returns the Manifold Ranking parameter of this index.
func (ix *Index) Alpha() float64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.alpha
}

// Exact reports whether the index uses the complete factorization
// (MogulE).
func (ix *Index) Exact() bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.exact
}

// Layout exposes the permutation and cluster geometry of the current
// base (see Graph for the snapshot semantics under Compact).
func (ix *Index) Layout() *Layout {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.layout
}

// Factor exposes the LDL^T factor (read-only use; see Graph for the
// snapshot semantics under Compact).
func (ix *Index) Factor() *cholesky.Factor {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.factor
}

// Version returns the index's monotonic mutation version: it starts
// at 1 and increases on every Insert, Delete, and Compact (including
// auto-compactions), never decreasing and never moving while the index
// is quiescent. Two equal Version readings therefore bracket a window
// with no visible mutation — the invariant result caches key on. Loads
// are atomic and lock-free.
func (ix *Index) Version() uint64 { return ix.version.Load() }

// Stats returns precomputation statistics (of the latest base build).
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.stats
}

// ClearTimings zeroes the wall-clock fields of the build statistics.
// Everything else an index serializes is a deterministic function of
// (points, options) at any GOMAXPROCS; the timings are the one
// diagnostic that is not. Clearing them makes Save output byte-stable,
// which reproducible-snapshot pipelines and the build-determinism
// tests rely on.
func (ix *Index) ClearTimings() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.stats.ClusterTime = 0
	ix.stats.PermuteTime = 0
	ix.stats.FactorTime = 0
}
