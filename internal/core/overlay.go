package core

import (
	"mogul/internal/topk"
	"mogul/internal/vec"
)

// Online updates via an out-of-sample overlay.
//
// Mogul's precomputation (graph -> clustering -> Cholesky) is query
// independent but data dependent: a changed database invalidates the
// factor. Rather than rebuilding on every change, new points are
// scored through the out-of-sample extension of Section 4.6.2: each
// inserted point is represented by its nearest in-database neighbours
// (surrogates) with heat-kernel weights, exactly as an out-of-sample
// query would be. Because the Manifold Ranking kernel
// (I - alpha S)^{-1} is symmetric, the score of delta point d for any
// query is q_d^T x, where q_d is d's surrogate query vector and x the
// query's base score vector — so delta items merge into every search
// path's result heap for the price of reading x at a handful of extra
// positions. Deletions tombstone base or delta items and filter them
// from every search path.
//
// This package holds only that arithmetic. Who may read or write an
// overlay when, the version counter, compaction and the replication log
// are the engine lifecycle's (package mogul, engine.go): it owns the
// overlay's storage, hands each search a consistent view of it, and
// swaps in a freshly built Index when the overlay is folded in.

// Overlay is the plain-data update layer one search reads next to the
// immutable base. Delta item i has external id N+i (N the base size);
// ids are never reused until a compaction renumbers. A search only
// reads it; the zero-delta overlay of a bare index is Overlay{Live: N}.
type Overlay struct {
	// Dead flags tombstoned ids over the whole id space, base then
	// delta. It may be nil when nothing is dead and there is no delta.
	Dead []bool
	// DeadBase counts the tombstones among base ids; zero lets the hot
	// offer loop skip the filter altogether.
	DeadBase int
	// Live counts the live items, base and delta together.
	Live int
	// Probes[i] are the base node ids acting as surrogate query nodes
	// for delta item i; Weights[i] are their normalized heat-kernel
	// weights (sum 1); Clusters[i] lists the distinct clusters holding
	// them — the clusters a search must back-substitute before delta
	// item i's score can be read off x.
	Probes   [][]int
	Weights  [][]float64
	Clusters [][]int
}

// DeltaStats describes the dynamic state of an index.
type DeltaStats struct {
	// BaseItems is the size of the factored base, including items
	// already tombstoned.
	BaseItems int
	// DeltaItems is the number of live inserted items awaiting
	// compaction.
	DeltaItems int
	// Tombstones is the number of deleted items (base and delta)
	// awaiting compaction.
	Tombstones int
}

// liveDelta returns the number of live delta items.
func (ix *Index) liveDelta(ov *Overlay) int {
	return ov.Live - (ix.factor.N - ov.DeadBase)
}

// Attach selects the surrogate representation of a point about to be
// stored as the next delta item: its nearest live base neighbours, their
// normalized heat-kernel weights, and the distinct clusters holding
// them, in freshly allocated slices the caller appends to its overlay.
func (ix *Index) Attach(ov *Overlay, v vec.Vector) (probes []int, weights []float64, clusters []int, err error) {
	s := ix.AcquireScratch()
	defer ix.ReleaseScratch(s)
	ix.ready(s)
	if err := ix.findSurrogates(s, ov, v, 0); err != nil {
		return nil, nil, nil, err
	}
	probes = append([]int(nil), s.probeIDs...)
	return probes, append([]float64(nil), s.probeWts...), ix.ProbeClusters(probes), nil
}

// ProbeClusters returns the distinct clusters containing the given
// base node ids, in first-seen order.
func (ix *Index) ProbeClusters(probes []int) []int {
	out := make([]int, 0, 2)
next:
	for _, id := range probes {
		c := ix.layout.ClusterOf[ix.layout.Perm.OldToNew[id]]
		for _, seen := range out {
			if seen == c {
				continue next
			}
		}
		out = append(out, c)
	}
	return out
}

// ensureProbeClusters back-substitutes any cluster that holds a live
// delta point's surrogate and is not computed yet, so delta scores can
// be read off x. The scratch's computed[] table tracks which cluster
// score ranges of x are valid (and feeds the touched-ranges reset).
func (ix *Index) ensureProbeClusters(s *Scratch, ov *Overlay) {
	dead := ov.Dead[ix.factor.N:]
	for i, cs := range ov.Clusters {
		if dead[i] {
			continue
		}
		for _, c := range cs {
			if s.computed[c] {
				continue
			}
			lo, hi := ix.layout.ClusterRange(c)
			ix.backSubstituteRange(s.x, s.y, lo, hi)
			s.markComputed(c)
			s.info.ScoresComputed += hi - lo
			s.info.ClustersScanned++
		}
	}
}

// offerDeltas scores every live delta item against the current query
// — score(d) = q_d^T x by the symmetry of the Manifold Ranking kernel
// — and offers it to the collector under id n+i. x must be valid at
// every live probe position (ensureProbeClusters, or a full solve).
func (ix *Index) offerDeltas(coll *topk.Collector, x []float64, ov *Overlay) {
	if ix.liveDelta(ov) == 0 {
		return
	}
	n := ix.factor.N
	dead := ov.Dead[n:]
	oldToNew := ix.layout.Perm.OldToNew
	for i, probes := range ov.Probes {
		if dead[i] {
			continue
		}
		weights := ov.Weights[i]
		var s float64
		for j, nb := range probes {
			s += weights[j] * x[oldToNew[nb]]
		}
		coll.Offer(n+i, s)
	}
}

// AddSeed adds a live item of ov's id space (base or delta; the caller
// has validated it) to the query vector with the given weight, expanding
// it into permuted query sources in the scratch's source buffer (so the
// expansion is allocation-free in steady state).
func (ix *Index) AddSeed(s *Scratch, ov *Overlay, id int, weight float64) {
	n := ix.factor.N
	if id < n {
		s.srcBuf = append(s.srcBuf, source{pos: ix.layout.Perm.OldToNew[id], weight: (1 - ix.alpha) * weight})
		return
	}
	// A delta query diffuses from its surrogate representation, the
	// in-database analogue of an out-of-sample vector query.
	weights := ov.Weights[id-n]
	for j, nb := range ov.Probes[id-n] {
		s.srcBuf = append(s.srcBuf, source{
			pos:    ix.layout.Perm.OldToNew[nb],
			weight: (1 - ix.alpha) * weight * weights[j],
		})
	}
}
