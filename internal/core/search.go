package core

import (
	"fmt"
	"math"
	"slices"

	"mogul/internal/cholesky"
	"mogul/internal/topk"
	"mogul/internal/vec"
)

// Result is one ranked answer node.
type Result struct {
	// Node is the node id in the original (unpermuted) numbering.
	Node int
	// Score is the (approximate, or exact for MogulE) Manifold Ranking
	// score of the node for the query.
	Score float64
}

// SearchOptions tunes one search call. The zero value plus a positive
// K is the full Mogul algorithm (Algorithm 2).
type SearchOptions struct {
	// K is the number of answer nodes (clamped to n).
	K int
	// DisablePruning turns off the upper-bound estimation of
	// Section 4.3 while keeping the restricted substitution of
	// Section 4.2.3; this is the paper's "W/O estimation" ablation
	// (Figure 5).
	DisablePruning bool
	// FullSubstitution computes all n scores with unrestricted forward
	// and back substitution, ignoring the cluster structure entirely;
	// this is the paper's "Incomplete Cholesky" ablation (Figure 5).
	FullSubstitution bool
}

// SearchInfo reports work counters for one search; the experiments use
// them to show the effectiveness of pruning.
type SearchInfo struct {
	// ClustersPruned counts clusters skipped by the upper bound.
	ClustersPruned int
	// ClustersScanned counts clusters whose scores were computed
	// (including C_Q and C_N).
	ClustersScanned int
	// ScoresComputed counts back-substituted node scores.
	ScoresComputed int
}

// source is one non-zero of the permuted query vector q'.
type source struct {
	pos    int // permuted position
	weight float64
}

// The entry points below come in two families. The first takes an
// Overlay and a caller-held Scratch and validates nothing: it is what
// the engine lifecycle (package mogul) calls, once per query, with its
// own lock held and its own argument checks done. The second — TopK,
// Search, SearchOutOfSample, AllScores — serves a bare index (no
// overlay) with argument checks and pooled scratch, for the evaluation
// code and the tests.

// Begin revalidates s against this index and starts a new seeded query
// on it: AddSeed then accumulates the query vector q (a weighted seed
// set is the in-database analogue of the out-of-sample mechanism of
// Section 4.6.2, serving the "more items like these three" workloads
// Section 1.1 motivates), SearchSeeds runs it.
func (ix *Index) Begin(s *Scratch) {
	ix.ready(s)
	s.srcBuf = s.srcBuf[:0]
}

// checkNode validates a base query node of a bare index.
func (ix *Index) checkNode(query int) error {
	if n := ix.factor.N; query < 0 || query >= n {
		return fmt.Errorf("core: query node %d outside [0,%d)", query, n)
	}
	return nil
}

// TopK returns the k nodes with the highest Manifold Ranking scores
// for the in-database query node (original numbering), using the full
// Mogul algorithm. The call borrows a Scratch from the index pool, so
// its steady state allocates nothing beyond the returned slice.
func (ix *Index) TopK(query, k int) ([]Result, error) {
	s := ix.AcquireScratch()
	defer ix.ReleaseScratch(s)
	return ix.searchBare(s, query, SearchOptions{K: k})
}

// Search runs Algorithm 2 with the given options and returns ranked
// results plus work counters.
func (ix *Index) Search(query int, opts SearchOptions) ([]Result, *SearchInfo, error) {
	s := ix.AcquireScratch()
	defer ix.ReleaseScratch(s)
	res, err := ix.searchBare(s, query, opts)
	if err != nil {
		return nil, nil, err
	}
	info := s.info
	return res, &info, nil
}

// searchBare checks the arguments of an in-database query over the bare
// index and runs it on s.
func (ix *Index) searchBare(s *Scratch, query int, opts SearchOptions) ([]Result, error) {
	if opts.K <= 0 {
		return nil, fmt.Errorf("core: K must be positive, got %d", opts.K)
	}
	if err := ix.checkNode(query); err != nil {
		return nil, err
	}
	ov := Overlay{Live: ix.factor.N}
	ix.Begin(s)
	ix.AddSeed(s, &ov, query, 1)
	return ix.SearchSeeds(s, &ov, opts), nil
}

// SearchSeeds runs Algorithm 2 over the seeds added since Begin and
// returns the best live items of ov's id space. It is the shared engine
// behind in-database and out-of-sample queries: q' is given as a sparse
// list of permuted positions with weights in s.srcBuf, on a readied s;
// tombstoned items are filtered at offer time and live delta items are
// merged into the collector (overlay.go). On return the scratch is
// reset (only the touched cluster ranges are zeroed) and work counters
// are left in s.Info.
func (ix *Index) SearchSeeds(s *Scratch, ov *Overlay, opts SearchOptions) []Result {
	n := ix.factor.N
	k := opts.K
	if k > ov.Live {
		k = ov.Live
	}
	s.info = SearchInfo{}
	s.coll.Reset(k)

	if opts.FullSubstitution {
		return ix.searchFull(s, ov)
	}

	layout := ix.layout
	f := ix.factor
	border := layout.Border()

	// Active clusters: those holding a source, plus C_N (Lemma 4: the
	// support of y is C_Q ∪ C_N; with multiple sources it is the union
	// of their clusters plus C_N). Kept as a sorted, deduplicated list
	// — no map, no per-query O(NumClusters) membership scan.
	s.activeList = s.activeList[:0]
	for _, src := range s.srcBuf {
		s.activeList = append(s.activeList, layout.ClusterOf[src.pos])
	}
	s.activeList = append(s.activeList, border)
	slices.Sort(s.activeList)
	s.activeList = slices.Compact(s.activeList)

	// Forward substitution restricted to active clusters (Equation 4 /
	// Lemma 4). Column-oriented: finalize y_j, then scatter column j
	// of L into later rows; Lemma 3 guarantees all touched rows lie in
	// the same cluster or in C_N, both active — which is also what
	// keeps the post-query reset of y confined to the touched ranges.
	y := s.y
	for _, src := range s.srcBuf {
		y[src.pos] += src.weight
	}
	if f.Val32 != nil {
		forwardClusters(f, f.Val32, layout, s.activeList, y)
	} else {
		forwardClusters(f, f.Val, layout, s.activeList, y)
	}

	// Back substitution for C_N first (its scores feed every other
	// cluster, Lemma 5), then the remaining active clusters.
	x := s.x
	cN := layout.BorderStart()
	ix.backSubstituteRange(x, y, cN, n)
	s.markComputed(border)
	s.info.ScoresComputed += n - cN
	s.info.ClustersScanned++
	for _, c := range s.activeList {
		if c == border {
			continue
		}
		lo, hi := layout.ClusterRange(c)
		ix.backSubstituteRange(x, y, lo, hi)
		s.markComputed(c)
		s.info.ScoresComputed += hi - lo
		s.info.ClustersScanned++
	}

	// Seed the top-k set with the active clusters (Algorithm 2 lines
	// 8-16).
	for _, c := range s.activeList {
		lo, hi := layout.ClusterRange(c)
		ix.offerLive(s, ov, lo, hi)
	}

	// Border score magnitudes drive the X_i part of every cluster
	// bound (Equation 9).
	xAbsBorder := s.xAbsBorder
	for i := cN; i < n; i++ {
		xAbsBorder[i-cN] = math.Abs(x[i])
	}

	// Scan the remaining clusters, pruning with the upper bound
	// (Algorithm 2 lines 17-30). activeList is sorted, so a single
	// cursor replaces the old per-cluster map lookup.
	next := 0
	for c := 0; c < layout.NumClusters; c++ {
		if next < len(s.activeList) && s.activeList[next] == c {
			next++
			continue
		}
		if !opts.DisablePruning {
			bound := ix.bounds.clusterBound(c, layout, xAbsBorder)
			if bound < s.coll.Threshold() {
				s.info.ClustersPruned++
				continue
			}
		}
		lo, hi := layout.ClusterRange(c)
		ix.backSubstituteRange(x, y, lo, hi)
		s.markComputed(c)
		s.info.ScoresComputed += hi - lo
		s.info.ClustersScanned++
		ix.offerLive(s, ov, lo, hi)
	}

	// Merge the delta layer: make x valid wherever a live delta point
	// probes it, then offer the delta scores. A cluster scanned here
	// only feeds probe reads — its base items were already offered or
	// provably below the pruning threshold.
	if ix.liveDelta(ov) > 0 {
		ix.ensureProbeClusters(s, ov)
		ix.offerDeltas(&s.coll, x, ov)
	}

	res := ix.collect(&s.coll)
	s.reset(layout)
	return res
}

// offerLive offers the computed scores x[lo:hi) to the collector,
// filtering tombstoned base items through the overlay's flags, read in
// place (one byte load per offered item, and none while no base item is
// dead).
func (ix *Index) offerLive(s *Scratch, ov *Overlay, lo, hi int) {
	x := s.x
	if ov.DeadBase == 0 {
		for i := lo; i < hi; i++ {
			s.coll.Offer(i, x[i])
		}
		return
	}
	dead, newToOld := ov.Dead, ix.layout.Perm.NewToOld
	for i := lo; i < hi; i++ {
		if dead[newToOld[i]] {
			continue
		}
		s.coll.Offer(i, x[i])
	}
}

// forwardClusters runs the restricted forward substitution over the
// columns of the given clusters in order, with the factor's values in
// either storage width.
func forwardClusters[P vec.Float](f *cholesky.Factor, val []P, layout *Layout, clusters []int, y []float64) {
	for _, c := range clusters {
		lo, hi := layout.ClusterRange(c)
		for j := lo; j < hi; j++ {
			y[j] /= f.D[j]
			yj := y[j]
			if yj == 0 {
				continue
			}
			a, b := f.ColPtr[j], f.ColPtr[j+1]
			vals := val[a:b]
			dj := f.D[j]
			for t, i := range f.RowIdx[a:b] {
				y[i] -= float64(vals[t]) * dj * yj
			}
		}
	}
}

// backSubstituteRange computes x[lo:hi] by back substitution
// (Equation 5) assuming every x value the range depends on outside
// [lo, hi) — i.e. the C_N block — is already computed. Each score is
// one sequential sum (s -= v*x[j]), not vec.DotGather's four lanes:
// the query's scores are pinned to that order.
func (ix *Index) backSubstituteRange(x, y []float64, lo, hi int) {
	f := ix.factor
	if f.Val32 != nil {
		backSubstitute(f, f.Val32, x, y, lo, hi)
	} else {
		backSubstitute(f, f.Val, x, y, lo, hi)
	}
}

func backSubstitute[P vec.Float](f *cholesky.Factor, val []P, x, y []float64, lo, hi int) {
	for i := hi - 1; i >= lo; i-- {
		a, b := f.ColPtr[i], f.ColPtr[i+1]
		vals := val[a:b]
		s := y[i]
		for t, j := range f.RowIdx[a:b] {
			s -= float64(vals[t]) * x[j]
		}
		x[i] = s
	}
}

// searchFull is the unstructured ablation: full forward and back
// substitution over all n nodes, then a linear top-k scan. The solve
// runs in place on the scratch's x buffer (bit-identical arithmetic to
// Factor.Solve).
func (ix *Index) searchFull(s *Scratch, ov *Overlay) []Result {
	n := ix.factor.N
	q := s.x
	for _, src := range s.srcBuf {
		q[src.pos] += src.weight
	}
	ix.factor.SolveInPlace(q)
	s.info.ScoresComputed = n
	s.info.ClustersScanned = ix.layout.NumClusters
	ix.offerLive(s, ov, 0, n)
	// x is fully computed, so delta probes read it directly.
	ix.offerDeltas(&s.coll, q, ov)
	res := ix.collect(&s.coll)
	s.resetFull()
	return res
}

// collect converts a collector's content to Results in the original
// node numbering (Algorithm 2 lines 31-33: permute answers back by P).
// Collector ids at n and above are delta items, whose external id is
// the collector id itself (delta item i carries id n+i). The drained
// items alias the collector's storage; the returned slice is the only
// per-query allocation of the steady-state hot path.
func (ix *Index) collect(coll *topk.Collector) []Result {
	n := ix.factor.N
	items := coll.Drain()
	out := make([]Result, len(items))
	for i, it := range items {
		if it.ID >= n {
			out[i] = Result{Node: it.ID, Score: it.Score}
			continue
		}
		out[i] = Result{Node: ix.layout.Perm.NewToOld[it.ID], Score: it.Score}
	}
	return out
}

// AllScores computes the full score vector for an in-database base
// query in original node order, using unrestricted substitution. This
// is the O(n) "compute everything" path (Lemma 1); evaluation code
// uses it as the ranking oracle for P@k. Delta items are not covered:
// the vector spans the factored base only.
func (ix *Index) AllScores(query int) ([]float64, error) {
	if err := ix.checkNode(query); err != nil {
		return nil, err
	}
	s := ix.AcquireScratch()
	defer ix.ReleaseScratch(s)
	ix.ready(s)
	q := s.x
	q[ix.layout.Perm.OldToNew[query]] = 1 - ix.alpha
	ix.factor.SolveInPlace(q)
	out := ix.layout.Perm.ApplyInverse(q)
	s.resetFull()
	return out, nil
}
