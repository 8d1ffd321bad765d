package core

import (
	"mogul/internal/knn"
	"mogul/internal/topk"
)

// The pooled query engine.
//
// The paper's headline result is search time proportional to the work
// left after pruning, not to n — but a naive implementation of
// Algorithm 2 allocates two O(n) float vectors (y of Equation 4, x of
// Equation 5), per-cluster bookkeeping, and a fresh top-k heap on
// every query, so per-query *memory traffic* (allocation, zeroing, GC)
// stays O(n) even when pruning leaves almost nothing to scan. The
// Scratch type below makes the asymptotic win real under sustained
// load: one Scratch owns every buffer a query needs, queries borrow it
// (from a per-index sync.Pool, or held explicitly by a worker), and
// the post-query reset zeroes only the cluster ranges the query
// actually touched — tracked through the same computed[] table the
// delta merge already needs — so steady-state per-query allocations
// are zero and reset cost is proportional to scanned work.
//
// Invalidation: a Scratch's buffers are sized for one base geometry
// (n, cluster count), and an Index never changes its own: a compaction
// or a load produces a different Index. Every search entry point
// therefore revalidates its Scratch against the owning index alone and
// reallocates when it was last used on another one. Inserts and deletes
// live in the caller's Overlay and leave the geometry untouched.
//
// A Scratch must not be used by two goroutines at once; the pool-based
// entry points (Search, TopK, ...) take care of that, while the
// Scratch-taking ones leave it to the caller (one Scratch per worker).

// Scratch is a reusable query-engine workspace bound to one Index.
// The zero value is ready to use: buffers are sized lazily on first
// use and resized automatically when the Scratch is moved to another
// index (which is what a compaction amounts to). A Scratch is not safe
// for concurrent use.
type Scratch struct {
	// owner is the index whose base geometry the buffers are sized for.
	owner *Index

	// x and y are the permuted score and intermediate vectors of
	// Equations 4-5, length n. Outside a query both are all zero over
	// every cluster range not listed in touched (and touched is empty
	// between queries, so: all zero).
	x, y []float64
	// computed[c] records that x is valid over cluster c's range;
	// touched lists exactly the clusters with computed[c] == true, so
	// the reset after a query is proportional to the work done, not n.
	computed []bool
	touched  []int
	// activeList is the sorted list of clusters holding a query source,
	// plus the border cluster C_N (Lemma 4).
	activeList []int
	// xAbsBorder caches |x'_j| over the border block for the upper
	// bounds (Equation 9), length n - c_N.
	xAbsBorder []float64
	// coll is the reusable top-k heap.
	coll topk.Collector
	// info accumulates the work counters of the current query.
	info SearchInfo
	// srcBuf holds the expanded query sources of the current query.
	srcBuf []source

	// Out-of-sample buffers (oos.go): cluster-mean distances, the
	// candidate ids and their distances from one batch kernel call, the
	// selection, and the selected surrogate probes with weights.
	ordBuf   []clusterDist
	idBuf    []int
	distBuf  []float64
	sel      knn.Scratch
	probeIDs []int
	probeWts []float64
	// oosRawMass/oosRawCount record the raw (pre-normalization) kernel
	// mass of the last surrogate selection, feeding OOSAffinity.
	oosRawMass  float64
	oosRawCount int
}

// clusterDist is one (cluster, squared distance to mean) pair of the
// out-of-sample coarse quantizer scan.
type clusterDist struct {
	c int
	d float64
}

// AcquireScratch returns a Scratch from the index's pool (allocating
// one on first use or after the pool was drained by the GC). Pair with
// ReleaseScratch; the bare-index entry points do this internally. A
// caller of the Scratch-taking entry points may equally well hold a
// zero Scratch for a worker's lifetime (package mogul's Searcher does).
func (ix *Index) AcquireScratch() *Scratch {
	if s, ok := ix.scratchPool.Get().(*Scratch); ok {
		return s
	}
	return new(Scratch)
}

// ReleaseScratch returns a Scratch to the index's pool. The Scratch
// must not be used after release.
func (ix *Index) ReleaseScratch(s *Scratch) {
	ix.scratchPool.Put(s)
}

// ready revalidates s against this index's base geometry,
// (re)allocating every buffer when s is fresh or was last sized for a
// different index (a pre-compaction base included).
func (ix *Index) ready(s *Scratch) {
	if s.owner == ix {
		return
	}
	n := ix.factor.N
	nc := ix.layout.NumClusters
	s.x = make([]float64, n)
	s.y = make([]float64, n)
	s.computed = make([]bool, nc)
	s.touched = s.touched[:0]
	s.activeList = s.activeList[:0]
	s.xAbsBorder = make([]float64, n-ix.layout.BorderStart())
	s.srcBuf = s.srcBuf[:0]
	s.ordBuf = s.ordBuf[:0]
	s.probeIDs = s.probeIDs[:0]
	s.probeWts = s.probeWts[:0]
	s.owner = ix
}

// OOSAffinity returns the mean raw heat-kernel weight of the
// surrogates selected by the last out-of-sample search on this scratch
// — in [0, 1], where 1 means the query coincides with its surrogates
// and ~0 means this database is far from the query. The sharded
// fan-out scales every cross-shard contribution by it; OOSBreakdown
// surfaces the same number to public callers.
func (s *Scratch) OOSAffinity() float64 {
	if s.oosRawCount == 0 {
		return 0
	}
	return s.oosRawMass / float64(s.oosRawCount)
}

// Info returns the work counters left behind by the last search that
// ran on this scratch (every search path fills them, including the
// out-of-sample one, whose public return type is the phase breakdown
// instead). The sharded fan-out aggregates these across shards.
func (s *Scratch) Info() SearchInfo { return s.info }

// markComputed flags cluster c's range of x as valid and remembers it
// for the post-query reset.
func (s *Scratch) markComputed(c int) {
	s.computed[c] = true
	s.touched = append(s.touched, c)
}

// reset restores the invariant "x and y all zero, computed all false"
// by zeroing only the cluster ranges the query touched — the sublinear
// reset that keeps steady-state per-query memory traffic proportional
// to scanned work (layout must be the one the buffers were written
// under).
func (s *Scratch) reset(layout *Layout) {
	for _, c := range s.touched {
		lo, hi := layout.ClusterRange(c)
		clear(s.x[lo:hi])
		clear(s.y[lo:hi])
		s.computed[c] = false
	}
	s.touched = s.touched[:0]
	s.activeList = s.activeList[:0]
	s.srcBuf = s.srcBuf[:0]
}

// resetFull restores the invariant after an unrestricted O(n) solve
// (FullSubstitution), which writes x everywhere without going through
// markComputed. y is untouched by that path.
func (s *Scratch) resetFull() {
	clear(s.x)
	s.srcBuf = s.srcBuf[:0]
}
