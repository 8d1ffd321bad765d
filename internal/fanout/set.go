package fanout

import (
	"fmt"

	"mogul/internal/core"
	"mogul/internal/vec"
)

// Member is one shard as the lifecycle of a Set asks it for everything
// but a query; ids are shard-local.
type Member interface {
	Compactor
	// Insert adds v to the shard and returns its local id.
	Insert(v vec.Vector) (local int, err error)
	// Delete tombstones a local id.
	Delete(local int) error
	// Neighbors returns a local item's graph context.
	Neighbors(local int) (ids []int, weights []float64, err error)
	// Stats reports the shard's construction statistics; a shard that
	// cannot answer reports zero ones, which add nothing to the sums.
	Stats() core.Stats
}

// Members is how a front-end asks its shards for the lifecycle of a
// Set, as Shards is how it asks them for a query: it returns shard s.
// The in-process mogul.ShardedIndex hands out its *Index shards
// themselves; the dist.Coordinator asks a shard's primary for
// mutations, liveness and bound and, hedged over its replicas, for
// Neighbors and Stats, each under the per-shard deadline.
type Members func(s int) Member

// Set is the lifecycle of a shard set, written once over the global id
// space it embeds: construction, insert routing, delete, compaction,
// Neighbors and the aggregate state. Each method takes the front-end's
// Members, as each Flow takes its Shards; the mutators hold the map's
// mutator lock for their whole run.
type Set struct {
	*IDMap

	// pkg is the front-end's package name. It prefixes every error the
	// set and its flows return (a shard's error wrapped inside), so each
	// carries the front-end's spelling.
	pkg string

	// route holds one k-means centroid per shard, and an insert goes to
	// the nearest; without centroids (a contiguous partition carries no
	// geometry) it goes to the least-loaded shard. autoCompact is the
	// pending-delta fraction of a shard's base past which an insert
	// compacts that shard; 0 never does. Both are data the set is built
	// with.
	route       []vec.Vector
	autoCompact float64
	// exact is shard 0's scoring mode; every shard is built with the
	// same options.
	exact bool
}

// NewSet builds the id map over partition from the shards' shapes, one
// per shard (New), and, over more than one shard, asks every shard for
// its probe bound in parallel. A shard whose bound does not come back
// has none: it is probed on every query, as an EMR or spectral shard
// (which derives none) always is.
func NewSet(pkg string, m Members, partition [][]int, globals int, shapes []Shape, route []vec.Vector, autoCompact float64) (*Set, error) {
	ids, err := New(partition, globals, shapes)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", pkg, err)
	}
	if n := len(partition); n > 1 {
		ForEach(n, n, func() func(int) {
			return func(s int) {
				if b, err := m(s).Bound(); err == nil {
					ids.SetBound(s, b)
				}
			}
		})
	}
	return &Set{IDMap: ids, pkg: pkg, route: route, autoCompact: autoCompact, exact: shapes[0].Exact}, nil
}

// errorf formats an error of the set's own, or one wrapping a shard's.
func (st *Set) errorf(format string, args ...any) error {
	return fmt.Errorf(st.pkg+": "+format, args...)
}

// Exact reports the shard set's scoring mode.
func (st *Set) Exact() bool { return st.exact }

// Route returns the routing centroids the set was built with, nil for
// a partition without geometry; the caller must not modify them.
func (st *Set) Route() []vec.Vector { return st.route }

// AutoCompact returns the auto-compaction fraction the set was built
// with.
func (st *Set) AutoCompact() float64 { return st.autoCompact }

// routeOf picks the shard a new point goes to. A vector of the wrong
// dimension has no nearest centroid: it goes to the least-loaded shard,
// which refuses it.
func (st *Set) routeOf(v vec.Vector) int {
	if len(st.route) == 0 || len(v) != len(st.route[0]) {
		return st.LeastLoaded()
	}
	best, bestD := 0, vec.SquaredEuclidean(v, st.route[0])
	for s := 1; s < len(st.route); s++ {
		if d := vec.SquaredEuclidean(v, st.route[s]); d < bestD {
			best, bestD = s, d
		}
	}
	return best
}

// Insert adds v to the shard it routes to and returns the new global
// id. When the insert takes that shard's pending delta past the
// auto-compaction fraction, the shard compacts; the insert has already
// succeeded, so a compaction failure is left to an explicit Compact.
func (st *Set) Insert(m Members, v vec.Vector) (int, error) {
	st.LockMutators()
	defer st.UnlockMutators()
	s := st.routeOf(v)
	local, err := m(s).Insert(v)
	if err != nil {
		return 0, st.errorf("inserting into shard %d: %w", s, err)
	}
	g := st.Append(s, local)
	if d := st.ShardDelta(s); st.autoCompact > 0 && float64(d.DeltaItems+d.Tombstones) > st.autoCompact*float64(d.BaseItems) {
		_ = st.compact(m, s, s+1)
	}
	st.Bump()
	return g, nil
}

// Delete tombstones global id id in its owning shard. Deleting an
// unknown or already-deleted id is an error, and every shard keeps at
// least one live item.
func (st *Set) Delete(m Members, id int) error {
	st.LockMutators()
	defer st.UnlockMutators()
	loc, err := st.Locate(id)
	if err != nil {
		return st.errorf("%w", err)
	}
	if err := m(loc.Shard).Delete(loc.Local); err != nil {
		return st.errorf("item %d (shard %d): %w", id, loc.Shard, err)
	}
	st.MarkDeleted(loc)
	st.Bump()
	return nil
}

// Compact folds every shard's delta in, global ids preserved
// (CompactShard), and stops at the first shard that fails.
func (st *Set) Compact(m Members) error {
	st.LockMutators()
	defer st.UnlockMutators()
	return st.compact(m, 0, len(st.l2g))
}

// compact runs CompactShard over shards [lo, hi); callers hold the
// mutator lock.
func (st *Set) compact(m Members, lo, hi int) error {
	for s := lo; s < hi; s++ {
		if err := st.CompactShard(s, m(s)); err != nil {
			return st.errorf("compacting shard %d: %w", s, err)
		}
	}
	return nil
}

// Neighbors returns an item's graph context inside its owning shard,
// remapped to global ids. Edges never cross shards, so a boundary
// item's list is its shard's view of the manifold.
func (st *Set) Neighbors(m Members, item int) ([]int, []float64, error) {
	st.RLock()
	defer st.RUnlock()
	loc, err := st.Locate(item)
	if err != nil {
		return nil, nil, st.errorf("%w", err)
	}
	ids, weights, err := m(loc.Shard).Neighbors(loc.Local)
	if err != nil {
		return nil, nil, st.errorf("item %d (shard %d): %w", item, loc.Shard, err)
	}
	ids, weights = st.remap(loc.Shard, ids, weights)
	return ids, weights, nil
}

// Stats aggregates construction statistics across the shards: counts
// and times sum, modularity is the node-weighted mean. The shards are
// asked all at once, so a coordinator's unanswering shards cost one
// per-shard deadline together, not one each; the answers are folded in
// shard order, so the modularity sum keeps its bits.
func (st *Set) Stats(m Members) core.Stats {
	shards := make([]core.Stats, len(st.l2g))
	ForEach(len(shards), len(shards), func() func(int) {
		return func(s int) { shards[s] = m(s).Stats() }
	})
	var out core.Stats
	var wmod float64
	for _, sh := range shards {
		out.NumNodes += sh.NumNodes
		out.NumEdges += sh.NumEdges
		out.NumClusters += sh.NumClusters
		out.BorderSize += sh.BorderSize
		out.FactorNNZ += sh.FactorNNZ
		out.ClampedPivots += sh.ClampedPivots
		out.ClusterTime += sh.ClusterTime
		out.PermuteTime += sh.PermuteTime
		out.FactorTime += sh.FactorTime
		wmod += sh.Modularity * float64(sh.NumNodes)
	}
	if out.NumNodes > 0 {
		out.Modularity = wmod / float64(out.NumNodes)
	}
	return out
}
