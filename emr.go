package mogul

// The EMR engine: Efficient Manifold Ranking (Xu et al., SIGIR'11)
// promoted from comparison baseline (internal/baseline/emr.go) to a
// first-class serving backend.
//
// The exact engine's precompute cost caps n per shard; EMR removes the
// cap by ranking over an anchor graph instead of the k-NN graph:
// p ≪ n anchors are chosen with k-means, every point is written as a
// Nadaraya-Watson weighted combination of its s nearest anchors
// (sparse Z, p x n), and the normalized graph factors as S = H^T H
// with H = Lambda^{1/2} Z D^{-1/2}. The Woodbury identity turns the
// n x n manifold-ranking solve into a p x p one,
//
//	x = (1-alpha) (q + alpha H^T (I_p - alpha H H^T)^{-1} H q),
//
// whose p x p system is query independent, symmetric positive definite
// (eigenvalues in [1-alpha, 1]) and met only by right-hand sides H q
// with as many non-zeros as the query's seeds touch anchors (s for one
// item or one vector). BuildEMR therefore inverts it exactly once and
// holds M = (I_p - alpha H H^T)^{-1} explicitly, so a query combines
// the rows of M its right-hand side touches and then scores only the
// anchor cells whose upper bound can still reach the k-th score (the
// paper's Algorithm 2 over anchor cells; emrCells and collect below):
// O(p s) for the combine, O(p) plus what the few anchors near the query
// push for the bound, and a few percent of the n rows on clustered data.
// Insert appends an H column against the frozen anchor set (O(p) — M is
// untouched), Delete tombstones, and Compact re-runs k-means over the
// live points.
//
// *EMRIndex implements the full Retriever surface, so it serves
// through the serve package, the dist coordinator, and mogul-server
// interchangeably with the exact and sharded engines. Scores are
// approximations of exact Manifold Ranking (the anchor graph replaces
// the k-NN graph); docs/EMR.md maps the recall/latency frontier
// against the exact engine and says when to choose which.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"mogul/internal/dense"
	"mogul/internal/kmeans"
	"mogul/internal/knn"
	"mogul/internal/par"
	"mogul/internal/vec"
)

// EMROptions configures the anchor graph of BuildEMR. The zero value
// gives serving defaults (128 anchors, 5 nearest anchors per point);
// the shared Options value supplies Alpha, Seed, and
// AutoCompactFraction (graph-construction fields such as GraphK are
// ignored — EMR's anchor graph replaces the k-NN graph).
type EMROptions struct {
	// NumAnchors is p, the anchor count (k-means centers). More
	// anchors buy recall at O(p^3) build cost and p^2 floats of memory
	// (a query pays only O(p s) of it): the default 128 suits coarse
	// class-level retrieval; fine-grained workloads
	// (near-duplicate lookup over micro-clusters) want 2560 with
	// NumNearestAnchors 24, which holds recall@10 >= 0.9 against the
	// exact engine at n = 10^5 on the evaluation mixture (docs/EMR.md
	// maps the frontier).
	NumAnchors int
	// NumNearestAnchors is s, the anchors each point attaches to
	// (default 5, clamped to NumAnchors).
	NumNearestAnchors int
}

func (o EMROptions) withDefaults() EMROptions {
	if o.NumAnchors <= 0 {
		o.NumAnchors = 128
	}
	if o.NumNearestAnchors <= 0 {
		o.NumNearestAnchors = 5
	}
	return o
}

// emrState is everything a query touches, grouped so Compact can build
// a replacement off-line and swap it in atomically under the write
// lock. Within a state, anchors/lambda/colSum/gramInv are frozen at
// build time; the header's points/dead and hAnchor/hVal grow or flip
// under the write lock.
type emrState struct {
	engineHeader
	p, s int
	// anchors are the k-means centers; colSum[k] = sum_i Z_ki over the
	// base build and lambda[k] = 1/colSum[k] (frozen — delta columns
	// are attached against the base graph's normalization).
	anchors        []Vector
	colSum, lambda []float64
	// hAnchor/hVal store the H columns flat with stride s (item i owns
	// hAnchor[i*s:(i+1)*s] and row i of hVal): one cache-friendly
	// streaming array instead of n little slices, which is what keeps the
	// per-query scan memory-bandwidth bound. In mixed-precision mode the
	// weights are float32 rows; anchors, colSum, lambda, and the gram
	// inverse stay float64 (p-sized, cold next to the scan). Columns past
	// baseN are scored but do not contribute to the gram system until
	// Compact folds them in.
	hAnchor []int32
	hVal    vec.Rows
	// gramInv is M = (I_p - alpha H H^T)^{-1}, symmetric: a query reads
	// the rows its right-hand side touches.
	gramInv *dense.Matrix
	// cells is the pruning table of the scan, derived from the base
	// columns wherever a state is born (deriveCells) and never persisted.
	cells emrCells
}

// emrCells groups the base rows by primary anchor — the anchor a row
// puts its largest stored weight on, ties to the lower anchor id — and
// holds what bounds the best score inside each group (collect). Cell c
// owns rows[rowPtr[c]:rowPtr[c+1]], ascending ids, and the anchors
// ann[annPtr[c]:annPtr[c+1]] (ascending): the union of its members'
// attachments, with maxW the largest weight any member puts on each.
// v = H 1 over the base rows — every row of an anchor graph has
// h_i . v = 1 up to rounding, which is what makes the constant part of
// a query's z separable — and gmax[c] is the largest computed h_i . v
// in the cell. Tombstoned base rows stay in (a bound that covers a dead
// row is only looser); delta rows belong to no cell.
//
// The anchor-major half is the transpose of ann/maxW that the bound
// pass pushes through: anchor u is listed by the cells
// tCell[tPtr[u]:tPtr[u+1]] (ascending) with weights tW, sumW[c] is the
// sum of cell c's maxW, and maxSumW / maxGmax are the largest sumW and
// gmax over all cells. The whole table is about 69 bytes per base row
// at n = 20000, p = 1024, s = 24 (1.37 MB; 6.0 MB at n = 10^5,
// p = 2560), of which the transpose is 12 bytes per entry of ann.
type emrCells struct {
	rowPtr, annPtr []int
	rows, ann      []int32
	maxW           []float64
	v, gmax        []float64

	tPtr             []int
	tCell            []int32
	tW               []float64
	sumW             []float64
	maxSumW, maxGmax float64
}

// narrow32 moves the state into mixed-precision storage: the point
// matrix flattens to float32 rows and the H attachment weights round to
// float32, halving the bytes a scored row streams; anchors, column
// sums, and the gram inverse keep full precision. It runs before the
// cells are derived, so they are derived once, from the rounded weights.
func (st *emrState) narrow32() {
	st.points = st.points.Narrow()
	st.hVal = st.hVal.Narrow()
}

// column returns row i's anchor ids and its stored weights, widened into
// buf in mixed-precision mode.
func (st *emrState) column(i int, buf []float64) ([]int32, []float64) {
	return st.hAnchor[i*st.s : (i+1)*st.s], st.hVal.Row(i, buf)
}

// dotColumn returns h_i . z in the fixed four-lane summation order of
// vec.DotGather, the baseline's too: four independent accumulators keep
// the gather throughput-bound instead of FP-add-latency-bound. In f32
// mode the weights widen to float64 in registers (same lanes).
func (st *emrState) dotColumn(i int, z []float64) float64 {
	return st.hVal.DotGather(i, st.hAnchor[i*st.s:(i+1)*st.s], z)
}

// primaryAnchor returns the cell of row i: the anchor carrying its
// largest stored weight, ties to the lower anchor id. buf is widening
// scratch of width s.
func (st *emrState) primaryAnchor(i int, buf []float64) int32 {
	ids, ws := st.column(i, buf)
	best, bestW := ids[0], ws[0]
	for t, w := range ws {
		if a := ids[t]; w > bestW || (w == bestW && a < best) {
			best, bestW = a, w
		}
	}
	return best
}

// deriveCells fills st.cells from the base columns — two passes over
// them, one small sort per cell and a counting sort for the transpose —
// and returns the flat position of the first stored base weight that is
// negative or not finite, or -1. The scan's bound is one only over
// non-negative weights, which is what every build produces; loaders
// refuse anything else. A state is derived once, in its final storage
// precision (buildEMRState narrows first).
func (st *emrState) deriveCells() int {
	p, s, n := st.p, st.s, st.baseN
	c := emrCells{
		rowPtr: make([]int, p+1),
		annPtr: make([]int, p+1),
		rows:   make([]int32, n),
		v:      make([]float64, p),
		gmax:   make([]float64, p),
	}
	bad := -1
	buf := make([]float64, s)
	primary := make([]int32, n)
	for i := range primary {
		ids, ws := st.column(i, buf)
		for t, w := range ws {
			if !(w >= 0 && w <= math.MaxFloat64) && bad < 0 {
				bad = i*s + t
			}
			c.v[ids[t]] += w
		}
		primary[i] = st.primaryAnchor(i, buf)
		c.rowPtr[primary[i]+1]++
	}
	for a := 0; a < p; a++ {
		c.rowPtr[a+1] += c.rowPtr[a]
	}
	next := slices.Clone(c.rowPtr[:p])
	for i, a := range primary {
		c.rows[next[a]] = int32(i)
		next[a]++
	}

	// Per cell, the union of its members' anchors through a dense
	// last-writer stamp, sorted so the bound's gather walks rem forwards.
	stamp := make([]int, p)
	top := make([]float64, p)
	var union []int32
	for a := 0; a < p; a++ {
		union = union[:0]
		for _, r := range c.rows[c.rowPtr[a]:c.rowPtr[a+1]] {
			i := int(r)
			c.gmax[a] = max(c.gmax[a], st.dotColumn(i, c.v))
			ids, ws := st.column(i, buf)
			for t, w := range ws {
				u := ids[t]
				if stamp[u] != a+1 {
					stamp[u], top[u] = a+1, w
					union = append(union, u)
				} else {
					top[u] = max(top[u], w)
				}
			}
		}
		slices.Sort(union)
		for _, u := range union {
			c.ann = append(c.ann, u)
			c.maxW = append(c.maxW, top[u])
		}
		c.annPtr[a+1] = len(c.ann)
	}
	// The table lives as long as the state: drop append's spare capacity.
	c.ann, c.maxW = slices.Clone(c.ann), slices.Clone(c.maxW)

	// The transpose, by counting sort over ann: cells are visited in
	// ascending order, so every anchor's list comes out ascending.
	c.tPtr = make([]int, p+1)
	for _, u := range c.ann {
		c.tPtr[u+1]++
	}
	for u := 0; u < p; u++ {
		c.tPtr[u+1] += c.tPtr[u]
	}
	c.tCell = make([]int32, len(c.ann))
	c.tW = make([]float64, len(c.ann))
	c.sumW = make([]float64, p)
	copy(next, c.tPtr[:p])
	for a := 0; a < p; a++ {
		for j := c.annPtr[a]; j < c.annPtr[a+1]; j++ {
			u := c.ann[j]
			c.tCell[next[u]], c.tW[next[u]] = int32(a), c.maxW[j]
			next[u]++
			c.sumW[a] += c.maxW[j]
		}
		c.maxSumW = max(c.maxSumW, c.sumW[a])
		c.maxGmax = max(c.maxGmax, c.gmax[a])
	}
	st.cells = c
	return bad
}

// EMRIndex is the anchor-graph (Efficient Manifold Ranking) serving
// engine built by BuildEMR. It implements Retriever through the shared
// engine lifecycle (engine.go): searches run concurrently against the
// immutable base structures (read lock) on pooled per-searcher scratch,
// while Insert/Delete/Compact mutate the delta state (or swap the
// whole anchor graph) behind the write lock. In-database queries seed
// the anchor-space right-hand side from the items' stored H columns;
// out-of-sample queries compute their anchor weights on the fly (EMR's
// native out-of-sample mechanism — no surrogate neighbours needed).
type EMRIndex struct {
	engine[*emrState]
	// eopts is the recorded anchor recipe (pre-clamping) Compact rebuilds
	// with, alongside the engine's alpha and seed.
	eopts EMROptions
	// att is Insert's attachment scratch: attach fills dstIdx/dstVal,
	// commit appends them (mutMu serializes the pair).
	att struct {
		sc     knn.Scratch
		dstIdx []int32
		dstVal []float64
	}
}

// Both the engine and its searcher implement the shared serving
// surfaces.
var (
	_ Retriever = (*EMRIndex)(nil)
	_ Querier   = (*EMRSearcher)(nil)
)

func newEMRIndex(alpha float64, seed int64, autoCompact float64, eopts EMROptions, st *emrState) *EMRIndex {
	e := &EMRIndex{eopts: eopts}
	e.init(e, &emrFrame, "mogul", alpha, seed, autoCompact, st)
	return e
}

// BuildEMR constructs the anchor-graph engine over the given feature
// vectors. opts supplies Alpha, Seed, and AutoCompactFraction (its
// graph fields are ignored); eopts sizes the anchor graph. The build
// is deterministic for a fixed seed and query independent: one engine
// serves any query item, any vector, any k.
func BuildEMR(points []Vector, opts Options, eopts EMROptions) (*EMRIndex, error) {
	if err := checkBuildInput("BuildEMR", points, 1, &opts); err != nil {
		return nil, err
	}
	eopts = eopts.withDefaults()
	st, err := buildEMRState(points, opts.Alpha, opts.Seed, eopts, opts.Precision == F32)
	if err != nil {
		return nil, err
	}
	return newEMRIndex(opts.Alpha, opts.Seed, opts.AutoCompactFraction, eopts, st), nil
}

func (e *EMRIndex) build(points []Vector, f32 bool) (*emrState, error) {
	return buildEMRState(points, e.alpha, e.seed, e.eopts, f32)
}

// buildEMRState runs the offline half of EMR: k-means anchors, the
// shared anchor attachment (knn.BuildAnchorGraph — the engine and the
// baseline produce bit-identical graphs from the same inputs), and
// the explicit inverse of the gram system, all in float64; with f32 set
// the result is then narrowed, and only then are the cells derived.
func buildEMRState(points []Vector, alpha float64, seed int64, eopts EMROptions, f32 bool) (*emrState, error) {
	n := len(points)
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("mogul: EMR addresses base rows as int32, got %d points", n)
	}
	p := eopts.NumAnchors
	if p > n {
		p = n
	}
	s := eopts.NumNearestAnchors
	if s > p {
		s = p
	}
	t0 := time.Now()
	km, err := kmeans.Run(points, kmeans.Config{K: p, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("mogul: EMR anchors: %w", err)
	}
	clusterTime := time.Since(t0)
	p = len(km.Centroids)
	if s > p {
		s = p
	}
	ag := knn.BuildAnchorGraph(points, km.Centroids, s)

	st := &emrState{
		engineHeader: engineHeader{dim: len(points[0]), points: vec.AliasRows(points, len(points[0])), dead: make([]bool, n), baseN: n},
		p:            p,
		s:            ag.S,
		anchors:      ag.Anchors,
		colSum:       ag.ColSum,
		lambda:       ag.Lambda,
		hAnchor:      ag.HIdx,
		hVal:         vec.FlatRows(ag.HVal, ag.S),
	}

	// Gram system G = I_p - alpha H H^T. The rows are partitioned by
	// anchor, with an inverted anchor -> flat-position list (built in
	// ascending point order) driving each row, so a given cell (r, c)
	// receives its contributions in one fixed order — ascending point,
	// then ascending support position — at any GOMAXPROCS. G is
	// symmetric positive definite (H H^T is PSD with spectral radius at
	// most 1), which is what lets dense.InvertSPD replace a pivoted LU.
	t1 := time.Now()
	g := dense.Identity(p)
	if st.s > 0 {
		rowPos := make([][]int32, p)
		for i := 0; i < n; i++ {
			off := i * st.s
			for t := 0; t < st.s; t++ {
				a := st.hAnchor[off+t]
				rowPos[a] = append(rowPos[a], int32(off+t))
			}
		}
		par.For(p, 1, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				row := g.Row(r)
				for _, fp := range rowPos[r] {
					off := int(fp) / st.s * st.s
					va := -alpha * ag.HVal[fp]
					idx := st.hAnchor[off : off+st.s]
					val := ag.HVal[off : off+st.s]
					for b := range idx {
						row[idx[b]] += va * val[b]
					}
				}
			}
		})
	}
	st.gramInv, err = dense.InvertSPD(g)
	if err != nil {
		return nil, fmt.Errorf("mogul: EMR gram inversion: %w", err)
	}
	if f32 {
		st.narrow32()
	}
	st.deriveCells()
	st.stats = Stats{
		NumNodes:    n,
		NumClusters: p,
		FactorNNZ:   p * p,
		ClusterTime: clusterTime,
		FactorTime:  time.Since(t1),
	}
	return st, nil
}

// attach computes the H column of a point arriving after the base
// build, in full precision against the f64 anchors and the frozen base
// normalization: the Nadaraya-Watson weights of its s nearest anchors
// (the code path of the base build and of out-of-sample queries),
// scaled by Lambda^{1/2} and the point's own degree under the base
// column sums.
func (e *EMRIndex) attach(st *emrState, v Vector) error {
	a := &e.att
	if cap(a.dstIdx) < st.s { // first Insert, or Compact changed s
		a.dstIdx, a.dstVal = make([]int32, st.s), make([]float64, st.s)
	}
	a.dstIdx, a.dstVal = a.dstIdx[:st.s], a.dstVal[:st.s]
	knn.AnchorWeights(&a.sc, v, st.anchors, st.s, a.dstIdx, a.dstVal)
	knn.NormalizeColumn(a.dstIdx, a.dstVal, st.lambda, st.colSum)
	return nil
}

// commit appends the attached column; in f32 mode the stored weights
// round once.
func (e *EMRIndex) commit(st *emrState) {
	st.hVal.Append(e.att.dstVal)
	st.hAnchor = append(st.hAnchor, e.att.dstIdx...)
}

// NumAnchors returns p, the current anchor count.
func (e *EMRIndex) NumAnchors() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.st.p
}

// Neighbors is unavailable: the anchor graph stores point-to-anchor
// attachments, not item-to-item edges.
func (e *EMRIndex) Neighbors(item int) ([]int, []float64, error) {
	return nil, nil, fmt.Errorf("mogul: the EMR engine has no item-level neighbour graph (anchor attachments only)")
}

// EMRSearcher is a dedicated reusable query engine over an EMRIndex:
// it owns the dense anchor-space vectors (right-hand side, z = M rhs and
// the bound pass's remainder), the bound pass's per-cell scratch, the
// top-k collector, and the anchor-attachment scratch, so a steady query
// load runs allocation-free. Use one searcher per worker goroutine (the
// EMRIndex query methods draw from an internal pool). TopK,
// TopKWithInfo, TopKVector and TopKSet come from the shared searcher
// half (engine.go).
type EMRSearcher struct {
	searcher[*emrState]
	e           *EMRIndex
	rhs, z, rem []float64
	// entered marks the cells the current query has scanned; acc holds
	// each cell's pushed bound, order the right-hand side's anchors by
	// weight and cand the heap of cells the bound has not ruled out.
	entered []bool
	acc     []float64
	order   []int32
	cand    []cellKey
	// pushed counts the transposed entries the latest bound pass read.
	pushed int
	info   SearchInfo
	sc     knn.Scratch
	wIdx   []int32
	wVal   []float64
	// colBuf widens a stored column in mixed-precision mode.
	colBuf []float64
}

// cellKey is a candidate cell of the bound pass with its pushed bound.
type cellKey struct {
	bound float64
	cell  int32
}

// ahead is the candidate heap's order: a NaN bound first (nothing rules
// such a cell out), then the larger bound, ties to the lower cell id. It
// is total, so the pop sequence does not depend on the heap's layout.
func (a cellKey) ahead(b cellKey) bool {
	if an, bn := math.IsNaN(a.bound), math.IsNaN(b.bound); an != bn {
		return an
	} else if !an && a.bound != b.bound {
		return a.bound > b.bound
	}
	return a.cell < b.cell
}

// heapify orders the candidates into a heap under ahead.
func heapify(h []cellKey) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

// popCell removes the head of the heap h and returns it with the rest.
func popCell(h []cellKey) (cellKey, []cellKey) {
	top := h[0]
	h[0] = h[len(h)-1]
	h = h[:len(h)-1]
	siftDown(h, 0)
	return top, h
}

// siftDown restores the heap below position i.
func siftDown(h []cellKey, i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if j+1 < len(h) && h[j+1].ahead(h[j]) {
			j++
		}
		if !h[j].ahead(h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// NewSearcher returns a fresh dedicated searcher.
func (e *EMRIndex) NewSearcher() *EMRSearcher {
	sr := &EMRSearcher{e: e}
	sr.eng, sr.be = &e.engine, sr
	return sr
}

// NewQuerier is NewSearcher behind the interface surface (Retriever).
func (e *EMRIndex) NewQuerier() Querier { return e.NewSearcher() }

func (e *EMRIndex) newSearcher() *searcher[*emrState] { return &e.NewSearcher().searcher }

// ensure sizes the anchor-space buffers for the current anchor count
// (Compact may change p) and zeroes the right-hand side. Callers hold
// e.mu.
func (sr *EMRSearcher) ensure(p int) {
	if cap(sr.rhs) < p {
		sr.rhs = make([]float64, p)
		sr.z = make([]float64, p)
		sr.rem = make([]float64, p)
		sr.acc = make([]float64, p)
		sr.entered = make([]bool, p)
		sr.order = make([]int32, 0, p)
		sr.cand = make([]cellKey, 0, p)
	}
	if s := sr.e.st.s; cap(sr.colBuf) < s {
		sr.colBuf = make([]float64, s)
	}
	sr.rhs = sr.rhs[:p]
	sr.z = sr.z[:p]
	sr.rem = sr.rem[:p]
	sr.acc = sr.acc[:p]
	sr.entered = sr.entered[:p]
	clear(sr.rhs)
}

// collect runs the online half of EMR with e.mu held: z = M rhs as the
// combination of the rows of M (symmetric, so rows are columns) that
// sr.rhs touches, in ascending anchor order — s axpys of length p for
// one item or vector, at most p for a large seed set — then the paper's
// Algorithm 2 over anchor cells instead of a pass over every H column.
// seeds carries the query-vector entries q_i (sorted by ascending id,
// unique). A scored row's expression matches the baseline term for term
// except that the baseline solves its LU-factored system where this
// multiplies by the inverse, so over an unmutated engine the results
// agree with baseline.EMR to rounding (same ids, scores within 1e-12
// relative), not bit for bit.
//
// The scan. The seed rows' cells are scored first, because the bound
// omits the q_i term; then the cells of the anchors rhs touches, by
// descending weight, until two cells are in and the collector is full,
// so its threshold theta is a real k-th score before anything is
// bounded. For the rest, alpha = 0.99 lays a near-constant background
// under every score — z is close to a multiple of v = H 1, and
// h_i . v = 1 — which a plain "weights are non-negative" bound cannot
// get under. So the background is split off exactly: with
// c0 = max(0, min_a z_a/v_a) and rem = (z - c0 v)+, every base row of
// cell c has
//
//	h_i . z = c0 (h_i . v) + h_i . (z - c0 v) <= c0 gmax_c + sum_u maxW_c[u] rem[u]
//
// for any z whatever, because c0 and the stored weights are >= 0. What
// is left of rem is concentrated on the few anchors near the query, so
// the sum is bounded in two tiers: for any tau >= 0, since
// rem[u] <= tau + (rem[u] - tau)+,
//
//	sum_u maxW_c[u] rem[u] <= tau sumW_c + sum_{rem[u] > tau} maxW_c[u] (rem[u] - tau)
//
// The first tier costs one multiply per cell; the second is pushed from
// the anchors above tau through the transposed table, which at the
// tau of pushLevel are a few dozen of p. A cell stays a candidate unless
// alpha (1-alpha) times that, inflated by the slack below, cannot beat
// theta under Offer's own rule (a score <= the threshold is rejected).
// Candidates are popped best first from a max-heap on that bound; a
// popped cell is checked against the current theta again, first through
// its heap bound, then through the exact gather over its own anchors
// (cellBound), and entered only if both let it in. Once the top of the
// heap is at or below theta, so is the rest. The comparisons are
// written so a collector that is not yet full (threshold -Inf), a NaN
// anywhere in z (builtin min and max propagate it into c0 and rem; a NaN
// rem is above every tau, so it is pushed into every cell that lists
// its anchor) or an infinite bound never prunes: with k >= live this is
// the full scan. Delta rows belong to no cell and are always scored. The
// answer is the exhaustive scan's — same scores to the bit; only which
// of several items tied exactly at the k-th score survive can differ,
// because offers arrive in a different order. sr.info records what the
// scan did: entered plus skipped cells is p.
//
// The slack is spectral.go's: pruneRelSlack + 4 p 2^-52 relative covers
// every rounding between the true bound and a computed score. On the
// score's side: its s-term gather and the two scalings. On the bound's:
// gmax's own gather; the product and difference inside rem (an absolute
// 2^-53 c0 v_u per anchor, which the c0 gmax_c term dominates); and
// either the at most p-term gather of cellBound or the pushed sum, whose
// terms c0 gmax_c, tau sumW_c (sumW a sum of at most p terms) and one
// maxW (rem - tau) per pushing anchor (a difference and a product) are
// added one by one — at most 2p + 3 roundings. Every term of both bounds
// is non-negative (tau >= 0, and rem - tau > 0 where it is pushed), so
// each rounding is within 2^-53 relative of the whole, and whenever
// c0 > 0 (then z > 0 on every attached anchor) so is every term of the
// score; when c0 = 0 the negative terms of a score only lower it. That
// is at most 2p + 2s + 9 roundings in all, inside the 4 p 2^-52 term
// for p >= 3 (s <= p), with pruneRelSlack on top. pruneAbsSlack covers
// products that underflow.
func (sr *EMRSearcher) collect(k int, seeds []seedWeight) []Result {
	e := sr.e
	st := e.st
	z := sr.z
	clear(z)
	for a, r := range sr.rhs {
		if r != 0 {
			vec.Axpy(z, r, st.gramInv.Row(a))
		}
	}
	sr.resetCollector(k)
	sr.info = SearchInfo{}
	clear(sr.entered)
	for _, sw := range seeds {
		if sw.id < st.baseN {
			sr.scoreCell(int(st.primaryAnchor(sw.id, sr.colBuf)), seeds)
		}
	}
	// No cell entered from here on holds a seed row.
	for _, a := range sr.rhsOrder() {
		if sr.info.ClustersScanned >= 2 && sr.col.Threshold() > math.Inf(-1) {
			break
		}
		sr.scoreCell(int(a), nil)
	}

	c0, scale := sr.splitBackground()
	th := sr.col.Threshold()
	sr.pushBound(c0, sr.pushLevel(th, c0, scale))
	cand := sr.cand[:0]
	for c, b := range sr.acc {
		if sr.entered[c] {
			continue
		}
		if b = scale*b + pruneAbsSlack; prunes(b, th) {
			sr.info.ClustersPruned++
			continue
		}
		cand = append(cand, cellKey{b, int32(c)})
	}
	heapify(cand)
	for len(cand) > 0 {
		th = sr.col.Threshold()
		if prunes(cand[0].bound, th) {
			sr.info.ClustersPruned += len(cand)
			break
		}
		var top cellKey
		top, cand = popCell(cand)
		c := int(top.cell)
		// Nothing prunes against -Inf: skip the gather.
		if th > math.Inf(-1) && prunes(sr.cellBound(c, c0, scale), th) {
			sr.info.ClustersPruned++
			continue
		}
		sr.scoreCell(c, nil)
	}
	for _, i := range st.liveDelta {
		sr.scoreRow(i, seeds)
	}
	return sr.results()
}

// prunes reports whether a cell bounded by bound cannot beat the
// threshold th: never for a NaN or infinite bound.
func prunes(bound, th float64) bool {
	return bound <= th && bound <= math.MaxFloat64
}

// rhsOrder lists the anchors the right-hand side touches by descending
// weight, ties to the lower anchor id (cmp.Compare puts a NaN last).
func (sr *EMRSearcher) rhsOrder() []int32 {
	order := sr.order[:0]
	for a, r := range sr.rhs {
		if r != 0 {
			order = append(order, int32(a))
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(sr.rhs[b], sr.rhs[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}

// pushLevel returns the tau of the two-tier bound at threshold th: the
// level at which the first tier, c0 gmax_c + tau sumW_c, reaches th/scale
// for the cell with the largest gmax and sumW, so a cell can survive only
// through what is pushed into it. It is 0 whenever that is not a
// positive finite number (a collector that is not full, a NaN c0, a
// background that reaches theta by itself).
func (sr *EMRSearcher) pushLevel(th, c0, scale float64) float64 {
	cl := &sr.e.st.cells
	tau := (th/scale - c0*cl.maxGmax) / cl.maxSumW
	if !(tau > 0 && tau <= math.MaxFloat64) {
		return 0
	}
	return tau
}

// pushBound fills sr.acc with every cell's two-tier bound at level
// tau >= 0 before scaling, from splitBackground's results:
//
//	acc[c] = c0 gmax_c + tau sumW_c + sum_{rem[u] > tau} maxW_c[u] (rem[u] - tau)
//
// The first two terms are one pass over the cells; the sum reads the
// transposed lists of the anchors above tau only. A NaN rem is never at
// or below tau, so it poisons every cell that lists its anchor.
func (sr *EMRSearcher) pushBound(c0, tau float64) {
	cl := &sr.e.st.cells
	acc := sr.acc
	for c := range acc {
		acc[c] = c0*cl.gmax[c] + tau*cl.sumW[c]
	}
	sr.pushed = 0
	for u, r := range sr.rem {
		if r <= tau {
			continue
		}
		d := r - tau
		lo, hi := cl.tPtr[u], cl.tPtr[u+1]
		cells, ws := cl.tCell[lo:hi], cl.tW[lo:hi]
		for j, c := range cells {
			acc[c] += ws[j] * d
		}
		sr.pushed += hi - lo
	}
}

// splitBackground prepares the bound pass for the z in sr.z: it picks
// c0, fills sr.rem with (z - c0 v)+ and returns c0 with the
// slack-inflated alpha (1-alpha) every bound is scaled by. Anchors no
// base row attaches to (v_a = 0) are in no cell and constrain nothing.
func (sr *EMRSearcher) splitBackground() (c0, scale float64) {
	e := sr.e
	v := e.st.cells.v
	c0 = math.Inf(1)
	for a, va := range v {
		if va > 0 {
			c0 = min(c0, sr.z[a]/va)
		}
	}
	c0 = max(0, c0)
	for a, va := range v {
		// 0*d is NaN exactly when d is not finite and a signed zero
		// otherwise: an infinite z_a of either sign poisons the bound of
		// every cell that can see it (against a stored weight of 0 such a
		// row scores NaN, which Offer admits) and nothing else changes.
		d := sr.z[a] - c0*va
		sr.rem[a] = max(0, d) + 0*d
	}
	return c0, e.alpha * (1 - e.alpha) * (1 + pruneRelSlack + 4*float64(len(v))*0x1p-52)
}

// cellBound is the upper bound on the computed score of every base row
// of cell c that carries no q_i term, from splitBackground's results.
func (sr *EMRSearcher) cellBound(c int, c0, scale float64) float64 {
	cl := &sr.e.st.cells
	lo, hi := cl.annPtr[c], cl.annPtr[c+1]
	return scale*(c0*cl.gmax[c]+vec.DotGather(cl.maxW[lo:hi], cl.ann[lo:hi], sr.rem)) + pruneAbsSlack
}

// scoreCell offers the live rows of cell c, once per query.
func (sr *EMRSearcher) scoreCell(c int, seeds []seedWeight) {
	if sr.entered[c] {
		return
	}
	sr.entered[c] = true
	sr.info.ClustersScanned++
	cl := &sr.e.st.cells
	for _, i := range cl.rows[cl.rowPtr[c]:cl.rowPtr[c+1]] {
		sr.scoreRow(int(i), seeds)
	}
}

// scoreRow offers row i unless it is tombstoned: (1-alpha)(q_i + alpha
// h_i . z), with q_i looked up in seeds (ascending ids) by bisection.
func (sr *EMRSearcher) scoreRow(i int, seeds []seedWeight) {
	e := sr.e
	if e.st.dead[i] {
		return
	}
	sr.info.ScoresComputed++
	sum := e.alpha * e.st.dotColumn(i, sr.z)
	if at, ok := slices.BinarySearchFunc(seeds, i, func(sw seedWeight, id int) int { return sw.id - id }); ok {
		sum += seeds[at].w
	}
	sr.col.Offer(i, (1-e.alpha)*sum)
}

// scoreSeeds accumulates the seeds' stored H columns into the
// anchor-space right-hand side and runs the combine + scan.
func (sr *EMRSearcher) scoreSeeds(seeds []seedWeight, k int) []Result {
	st := sr.e.st
	sr.ensure(st.p)
	seeds = normalizeSeeds(seeds)
	for _, sw := range seeds {
		ids, ws := st.column(sw.id, sr.colBuf)
		for t, w := range ws {
			sr.rhs[ids[t]] += sw.w * w
		}
	}
	return sr.collect(k, seeds)
}

// scoreVector uses the query's own anchor weights as the right-hand
// side; the affinity is their unnormalized Epanechnikov mass.
func (sr *EMRSearcher) scoreVector(q Vector, k int) ([]Result, float64, error) {
	st := sr.e.st
	sr.ensure(st.p)
	mass, _ := sr.affinity(q)
	for t, a := range sr.wIdx {
		sr.rhs[a] = sr.wVal[t]
	}
	return sr.collect(k, nil), mass, nil
}

// affinity attaches q to its nearest anchors (weights land in
// sr.wIdx/sr.wVal) and returns the raw kernel mass.
func (sr *EMRSearcher) affinity(q Vector) (float64, error) {
	st := sr.e.st
	if cap(sr.wIdx) < st.s {
		sr.wIdx, sr.wVal = make([]int32, st.s), make([]float64, st.s)
	}
	sr.wIdx, sr.wVal = sr.wIdx[:st.s], sr.wVal[:st.s]
	return knn.AnchorWeights(&sr.sc, q, st.anchors, st.s, sr.wIdx, sr.wVal), nil
}

// work reports what the latest scan did: anchor cells entered and
// skipped, rows scored.
func (sr *EMRSearcher) work() SearchInfo { return sr.info }
