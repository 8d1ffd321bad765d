package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"mogul/internal/vec"
)

// OOSOptions configures an out-of-sample search (Section 4.6.2).
type OOSOptions struct {
	// K is the number of answer nodes. Required.
	K int
	// NumNeighbors is how many in-database neighbours of the query are
	// used as surrogate query nodes; defaults to the graph's k.
	NumNeighbors int
	// DisablePruning / FullSubstitution mirror SearchOptions.
	DisablePruning   bool
	FullSubstitution bool
}

// OOSBreakdown records the two phases the paper's Table 2 reports:
// nearest-neighbour lookup time and top-k search time.
type OOSBreakdown struct {
	// NearestNeighbor is the time to locate the query's neighbours via
	// the nearest cluster mean.
	NearestNeighbor time.Duration
	// TopK is the time of the pruned top-k search itself.
	TopK time.Duration
	// Neighbors are the surrogate query nodes (original ids) and their
	// normalized weights in the query vector q.
	Neighbors []Result
	// Affinity is the mean raw heat-kernel weight of the surrogates
	// (in [0, 1], before normalization): how close the query really is
	// to this database. The sharded fan-out scales each shard's
	// out-of-sample scores by it so distant shards cannot out-shout
	// the query's own region (docs/SHARDING.md).
	Affinity float64
}

// Overall returns the total out-of-sample search time.
func (b *OOSBreakdown) Overall() time.Duration { return b.NearestNeighbor + b.TopK }

// ensureOOS lazily builds the per-cluster mean feature vectors and
// member lists (original ids) used to find surrogate query nodes
// without touching the whole database (the paper's nearest-cluster
// trick keeps this O(n) worst case but far cheaper in practice). The
// Once makes the build race free among concurrent readers.
func (ix *Index) ensureOOS() {
	ix.oosOnce.Do(func() {
		if ix.oosMeans != nil {
			// Restored from a serialized index (ReadIndex populates the
			// tables before any concurrent use).
			return
		}
		layout := ix.layout
		nc := layout.NumClusters
		members := make([][]int, nc)
		for pos := 0; pos < ix.factor.N; pos++ {
			c := layout.ClusterOf[pos]
			members[c] = append(members[c], layout.Perm.NewToOld[pos])
		}
		means := make([]vec.Vector, nc)
		for c := 0; c < nc; c++ {
			if len(members[c]) == 0 {
				continue
			}
			m := make(vec.Vector, ix.graph.Points.Width())
			for _, id := range members[c] {
				ix.graph.Points.Axpy(m, 1, id)
			}
			m.Scale(1 / float64(len(members[c])))
			means[c] = m
		}
		ix.oosMeans = means
		ix.oosMembers = members
	})
}

// argminPicks is how many nearest clusters findSurrogates selects by
// linear argmin before sorting the rest: a pass costs one comparison per
// cluster and a sort about log2(clusters), so past a few picks the sort
// is the cheaper way to go on.
const argminPicks = 4

// cmpClusterDist orders clusters by ascending squared distance to their
// mean, ties by ascending cluster id.
func cmpClusterDist(a, b clusterDist) int {
	switch {
	case a.d < b.d:
		return -1
	case a.d > b.d:
		return 1
	default:
		return a.c - b.c
	}
}

// findSurrogates locates the numNbrs nearest live in-database
// neighbours of q via the nearest-cluster quantizer and leaves them,
// with their normalized heat-kernel weights (sum 1), in the scratch's
// probeIDs/probeWts buffers — the surrogate query-node representation
// of Section 4.6.2, shared by out-of-sample search and by Insert. The
// whole selection runs on scratch-owned buffers, so it allocates
// nothing in steady state. Callers have readied s.
func (ix *Index) findSurrogates(s *Scratch, ov *Overlay, q vec.Vector, numNbrs int) error {
	if numNbrs <= 0 {
		numNbrs = ix.graph.K
	}
	ix.ensureOOS()

	// Nearest clusters by mean feature, probed in ascending mean
	// distance until enough live candidates accumulate, so tiny or
	// heavily-tombstoned clusters cannot starve the query (robustness
	// extension over the paper's single-cluster description). One or two
	// clusters usually suffice, so the first picks are linear argmins
	// over the clusters not yet consumed; only a query that needs more
	// sorts the remainder. Either way the order is the total order of
	// cmpClusterDist, so the picks are exactly a full sort's prefix.
	// The means are measured by one batch call per run of non-empty
	// clusters, which in practice is one call: Louvain leaves no cluster
	// empty.
	means := ix.oosMeans
	s.distBuf = slices.Grow(s.distBuf[:0], len(means))[:len(means)]
	ord := s.ordBuf[:0]
	for lo := 0; lo < len(means); {
		if means[lo] == nil {
			lo++
			continue
		}
		hi := lo + 1
		for hi < len(means) && means[hi] != nil {
			hi++
		}
		vec.SquaredEuclideanBatch(q, means[lo:hi], s.distBuf[lo:hi])
		for c := lo; c < hi; c++ {
			ord = append(ord, clusterDist{c: c, d: s.distBuf[c]})
		}
		lo = hi
	}
	s.ordBuf = ord
	if len(ord) == 0 {
		return fmt.Errorf("core: no non-empty clusters")
	}
	s.idBuf = s.idBuf[:0]
	for i := range ord {
		switch {
		case i < argminPicks:
			best := i
			for j := i + 1; j < len(ord); j++ {
				if cmpClusterDist(ord[j], ord[best]) < 0 {
					best = j
				}
			}
			ord[i], ord[best] = ord[best], ord[i]
		case i == argminPicks:
			slices.SortFunc(ord[i:], cmpClusterDist)
		}
		for _, id := range ix.oosMembers[ord[i].c] {
			if ov.DeadBase > 0 && ov.Dead[id] {
				continue
			}
			s.idBuf = append(s.idBuf, id)
		}
		if len(s.idBuf) >= numNbrs {
			break
		}
	}
	if len(s.idBuf) == 0 {
		return fmt.Errorf("core: no live candidates for surrogate selection")
	}
	// The numNbrs nearest candidates under (distance, id), through the
	// selection every attach shares. The key is the distance, not its
	// square: two squares can round to one distance, and the order of the
	// weights below is the distance order.
	s.distBuf = slices.Grow(s.distBuf[:0], len(s.idBuf))[:len(s.idBuf)]
	ix.graph.Points.SqDistIDs(q, s.idBuf, s.distBuf)
	for i, d := range s.distBuf {
		s.distBuf[i] = math.Sqrt(d)
	}
	s.sel.Reset(numNbrs)
	s.sel.OfferAll(s.idBuf, s.distBuf)
	nbrs := s.sel.Sorted()

	// Heat-kernel weights, normalized to sum 1 so the query vector has
	// the same mass as an in-database query.
	sigma := ix.graph.Sigma
	s.probeIDs = s.probeIDs[:0]
	s.probeWts = s.probeWts[:0]
	var total float64
	for _, nb := range nbrs {
		w := math.Exp(-nb.Dist * nb.Dist / (2 * sigma * sigma))
		s.probeIDs = append(s.probeIDs, nb.ID)
		s.probeWts = append(s.probeWts, w)
		total += w
	}
	// The raw (pre-normalization) kernel mass measures how close the
	// query actually is to this database — the normalization below
	// erases that, which is right for a single index (ranking is scale
	// free) but exactly the signal a sharded fan-out needs to weigh one
	// shard's answers against another's (OOSAffinity).
	s.oosRawMass = total
	s.oosRawCount = len(s.probeWts)
	if total == 0 {
		// All neighbours are extremely remote under this bandwidth;
		// fall back to uniform weights rather than an all-zero query.
		for i := range s.probeWts {
			s.probeWts[i] = 1
		}
		total = float64(len(s.probeWts))
	}
	for i := range s.probeWts {
		s.probeWts[i] /= total
	}
	return nil
}

// checkVector validates an out-of-sample query vector.
func (ix *Index) checkVector(q vec.Vector) error {
	if ix.graph.Points.Len() == 0 {
		return fmt.Errorf("core: graph has no feature vectors; out-of-sample search unavailable")
	}
	if dim := ix.graph.Points.Width(); len(q) != dim {
		return fmt.Errorf("core: query dimension %d, want %d", len(q), dim)
	}
	return nil
}

// SurrogateAffinity runs only the surrogate-selection phase of an
// out-of-sample search for q and returns the mean raw heat-kernel
// weight of the selected surrogates (OOSAffinity) without searching.
// The sharded fan-out uses it to price the owning shard's affinity so
// cross-shard contributions can be scaled relative to it.
func (ix *Index) SurrogateAffinity(s *Scratch, ov *Overlay, q vec.Vector) (float64, error) {
	if err := ix.checkVector(q); err != nil {
		return 0, err
	}
	ix.ready(s)
	if err := ix.findSurrogates(s, ov, q, 0); err != nil {
		return 0, err
	}
	return s.OOSAffinity(), nil
}

// SearchOutOfSample ranks database nodes for a query vector that is
// not part of the graph. Following Section 4.6.2, the query's
// neighbours inside the nearest cluster (by mean feature) become the
// non-zero entries of q, weighted by heat-kernel similarity; the graph
// itself is never modified, so the precomputed factor is reused as-is.
func (ix *Index) SearchOutOfSample(q vec.Vector, opts OOSOptions) ([]Result, *OOSBreakdown, error) {
	s := ix.AcquireScratch()
	defer ix.ReleaseScratch(s)
	return ix.SearchVector(s, &Overlay{Live: ix.factor.N}, q, opts, true)
}

// SearchVector runs both phases of an out-of-sample search on the
// scratch, over ov's id space (live delta items compete in the results
// like any other item). wantBreakdown
// gates the OOSBreakdown assembly (phase timings plus the
// surrogate-neighbour copy), which is the only allocation of the path
// beyond the returned results.
func (ix *Index) SearchVector(s *Scratch, ov *Overlay, q vec.Vector, opts OOSOptions, wantBreakdown bool) ([]Result, *OOSBreakdown, error) {
	if opts.K <= 0 {
		return nil, nil, fmt.Errorf("core: K must be positive, got %d", opts.K)
	}
	if err := ix.checkVector(q); err != nil {
		return nil, nil, err
	}
	ix.ready(s)

	// Phase 1: surrogate query nodes and weights.
	t0 := time.Now()
	if err := ix.findSurrogates(s, ov, q, opts.NumNeighbors); err != nil {
		return nil, nil, err
	}
	s.srcBuf = s.srcBuf[:0]
	var breakNbrs []Result
	if wantBreakdown {
		breakNbrs = make([]Result, len(s.probeIDs))
	}
	for i, id := range s.probeIDs {
		s.srcBuf = append(s.srcBuf, source{pos: ix.layout.Perm.OldToNew[id], weight: (1 - ix.alpha) * s.probeWts[i]})
		if wantBreakdown {
			breakNbrs[i] = Result{Node: id, Score: s.probeWts[i]}
		}
	}
	nnTime := time.Since(t0)

	// Phase 2: the regular pruned top-k search with the multi-source
	// query vector.
	t1 := time.Now()
	res := ix.SearchSeeds(s, ov, SearchOptions{
		K:                opts.K,
		DisablePruning:   opts.DisablePruning,
		FullSubstitution: opts.FullSubstitution,
	})
	if !wantBreakdown {
		return res, nil, nil
	}
	bd := &OOSBreakdown{NearestNeighbor: nnTime, TopK: time.Since(t1), Neighbors: breakNbrs, Affinity: s.OOSAffinity()}
	return res, bd, nil
}
