package mogul

// Sharded indexes: the scale lever past one precomputation.
//
// A single Mogul index is bounded by what one clustering + Cholesky
// factorization can hold; the paper's whole pitch is scaling Manifold
// Ranking past that. A ShardedIndex partitions the database into S
// disjoint shards, builds S independent per-shard indexes in parallel,
// and serves every query by fanning it out to all shards and merging
// the per-shard top-k lists into one global ranking:
//
//   - the shard that owns an in-database query answers with the normal
//     in-database search;
//   - every other shard answers through the out-of-sample machinery of
//     Section 4.6.2, with the query's feature vector as the probe —
//     both query forms carry unit mass, so their scores are directly
//     comparable in the merge;
//   - vector queries are out-of-sample everywhere, exactly as on a
//     single index.
//
// Because diffusion never crosses shard boundaries, sharded rankings
// are an approximation of the unsharded ones (see docs/SHARDING.md for
// the recall model and shard_test.go for the measured recall@10); with
// S = 1 they are bit-identical to a plain Index. The fan-out reuses
// the pooled query engine (one pinned Searcher per shard inside a
// ShardedSearcher), so a steady-state sharded TopK allocates S+1
// objects: the S per-shard result slices plus the merged output.
//
// Item ids are global and stable: Insert assigns the next free global
// id and routes the point to its owning shard (nearest k-means
// centroid, or the least-loaded shard under contiguous partitioning);
// Delete and Compact route the same way. Unlike a single Index —
// whose Compact renumbers ids after deletions — global ids survive
// shard compaction unchanged; the shard-local renumbering is absorbed
// by the id maps below.

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"mogul/internal/core"
	"mogul/internal/kmeans"
	"mogul/internal/topk"
	"mogul/internal/vec"
)

// Partitioner selects how BuildSharded splits the dataset.
type Partitioner int

const (
	// PartitionContiguous assigns equal contiguous input ranges to the
	// shards: shard s holds the points with ids in [s*n/S, (s+1)*n/S).
	// Ids are preserved verbatim, which makes this the partitioner of
	// choice when the input order already groups related items (and the
	// one whose S=1 case is trivially bit-identical to a plain Build).
	PartitionContiguous Partitioner = iota
	// PartitionKMeans clusters the points with k-means (k = S, seeded
	// by Options.Seed) so that each shard holds a geometrically
	// coherent region. Queries then find most of their manifold inside
	// one shard, which is what keeps sharded recall close to the
	// unsharded ranking; shards that would end up with fewer than two
	// points are topped up from their largest neighbour.
	PartitionKMeans
)

// ShardOptions configures BuildSharded.
type ShardOptions struct {
	// Shards is the shard count S; 0 or 1 builds a single shard.
	Shards int
	// Partitioner selects the dataset split (default contiguous).
	Partitioner Partitioner
	// Parallelism bounds the concurrent per-shard builds; <= 0 selects
	// GOMAXPROCS.
	Parallelism int
}

// shardLoc addresses one item inside the shard set: the owning shard
// and the item's shard-local id. shard < 0 marks a global id whose
// item was deleted and compacted away (the id is never reused).
type shardLoc struct {
	shard, local int
}

// ShardedIndex is a set of per-shard Mogul indexes behind one global
// id space, built by BuildSharded or LoadSharded. It serves the same
// query surface as Index (it implements Retriever) and is safe for
// concurrent use: searches fan out under a read lock while
// Insert/Delete/Compact maintain the id maps under the write lock.
type ShardedIndex struct {
	// mu guards locOf and l2g, and freezes them relative to the shard
	// states: fan-out searches hold it in read mode for the whole
	// query, and the two mutations that change the local<->global
	// correspondence (Insert's append, Compact's renumbering after
	// deletions) run under the write lock.
	mu sync.RWMutex
	// mutMu serializes mutators, mirroring Index.compactMu.
	mutMu sync.Mutex

	shards      []*Index
	part        Partitioner
	centroids   []Vector // k-means routing centroids; nil for contiguous
	autoCompact float64  // sharded-level auto-compaction fraction

	// locOf maps a global id to its owning shard and shard-local id;
	// l2g is the inverse, one dense table per shard covering the
	// shard's whole local id space (live and tombstoned slots alike).
	locOf []shardLoc
	l2g   [][]int

	// searchers recycles ShardedSearchers for the pool-based entry
	// points (TopK etc.), mirroring the per-Index scratch pool.
	searchers sync.Pool

	// version counts completed sharded mutations (Insert/Delete/
	// Compact), bumped only after both the shard state AND the id maps
	// are final. It deliberately is not the sum of the shard versions:
	// a shard bumps mid-Insert, before the global id maps cover the new
	// item, and a result cache stamping that intermediate value could
	// serve the map-less ranking as current. See Version.
	version atomic.Uint64
}

// BuildSharded partitions the dataset into sopts.Shards shards, builds
// the per-shard indexes in parallel, and returns the sharded index
// serving them behind one global id space. opts applies to every
// shard build, with one exception: AutoCompactFraction is enforced at
// the sharded layer (which must renumber its id maps around a
// compaction), never inside a shard.
func BuildSharded(points []Vector, opts Options, sopts ShardOptions) (*ShardedIndex, error) {
	s := sopts.Shards
	if s <= 0 {
		s = 1
	}
	if len(points) < 2*s {
		return nil, fmt.Errorf("mogul: %d shards need at least %d points, got %d", s, 2*s, len(points))
	}
	assign, centroids, err := partitionPoints(points, s, sopts.Partitioner, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("mogul: partitioning: %w", err)
	}
	members := make([][]int, s)
	for g, sh := range assign {
		members[sh] = append(members[sh], g)
	}

	// Shards never auto-compact on their own: a shard-internal
	// compaction after deletions would renumber local ids behind the
	// sharded layer's back. The fraction moves up a level instead.
	shardOpts := opts
	shardOpts.AutoCompactFraction = 0
	// Pin one heat-kernel bandwidth across all shards: each shard
	// deriving sigma from its own (partition-restricted) neighbour
	// distances makes every shard score on a slightly different kernel,
	// which measurably distorts the merged ranking against the
	// unsharded one. Estimated once over the full dataset, exactly as
	// a single build would derive it. S = 1 keeps the derived value —
	// one shard over everything IS the single build, bit for bit.
	if s > 1 && shardOpts.Sigma == 0 {
		k := shardOpts.GraphK
		if k <= 0 {
			k = 5
		}
		shardOpts.Sigma = EstimateSigma(points, k)
	}

	shards := make([]*Index, s)
	errs := make([]error, s)
	workers := sopts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > s {
		workers = s
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sh := range next {
				pts := make([]Vector, len(members[sh]))
				for i, g := range members[sh] {
					pts[i] = points[g]
				}
				shards[sh], errs[sh] = Build(pts, shardOpts)
			}
		}()
	}
	for sh := 0; sh < s; sh++ {
		next <- sh
	}
	close(next)
	wg.Wait()
	for sh, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("mogul: building shard %d: %w", sh, err)
		}
	}

	six := &ShardedIndex{
		shards:      shards,
		part:        sopts.Partitioner,
		centroids:   centroids,
		autoCompact: opts.AutoCompactFraction,
		locOf:       make([]shardLoc, len(points)),
		l2g:         members,
	}
	for sh, m := range members {
		for local, g := range m {
			six.locOf[g] = shardLoc{shard: sh, local: local}
		}
	}
	six.version.Store(1)
	return six, nil
}

// EstimateSigma estimates the heat-kernel bandwidth a single Build
// would derive over the dataset — the standard deviation of all
// k-nearest-neighbour distances — from a deterministic sample of up to
// 512 points (each sample's exact k-NN is found over the full
// dataset). BuildSharded pins this estimate across its shards so every
// shard weighs edges on the same kernel; it is exported so tests and
// tools can construct reference indexes on the identical bandwidth.
func EstimateSigma(points []Vector, k int) float64 {
	const maxSample = 512
	n := len(points)
	m := n
	if m > maxSample {
		m = maxSample
	}
	// The sample rows are independent O(n·dim) scans — parallelize
	// them so the estimate never becomes the serial prefix of an
	// otherwise parallel sharded build.
	dists := make([]float64, m*k)
	counts := make([]int, m)
	workers := runtime.GOMAXPROCS(0)
	if workers > m {
		workers = m
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			coll := topk.New(k)
			for si := range next {
				i := si * n / m
				coll.Reset(k)
				for j, p := range points {
					if j == i {
						continue
					}
					// Negated squared distances: "largest score"
					// selects the nearest, as the k-NN searchers do.
					coll.Offer(j, -vec.SquaredEuclidean(points[i], p))
				}
				drained := coll.Drain()
				for t, it := range drained {
					dists[si*k+t] = math.Sqrt(-it.Score)
				}
				counts[si] = len(drained)
			}
		}()
	}
	for si := 0; si < m; si++ {
		next <- si
	}
	close(next)
	wg.Wait()
	// Compact out the unfilled tail slots of rows with fewer than k
	// other points (tiny datasets), keeping every real distance —
	// zeros from duplicate points included, as BuildGraph's own
	// derivation does.
	filled := dists[:0]
	for si, c := range counts {
		filled = append(filled, dists[si*k:si*k+c]...)
	}
	sigma := vec.Stddev(filled)
	if sigma <= 0 {
		// Degenerate data (all sampled points identical): any positive
		// bandwidth yields weight 1 on every edge (BuildGraph's own
		// fallback).
		sigma = 1
	}
	return sigma
}

// partitionPoints computes the shard assignment (and, for k-means, the
// routing centroids) for s shards. Every shard is guaranteed at least
// two points, the Build minimum.
func partitionPoints(points []Vector, s int, p Partitioner, seed int64) ([]int, []Vector, error) {
	n := len(points)
	switch p {
	case PartitionContiguous:
		assign := make([]int, n)
		for i := range assign {
			assign[i] = i * s / n
		}
		return assign, nil, nil
	case PartitionKMeans:
		km, err := kmeans.Run(points, kmeans.Config{K: s, Seed: seed})
		if err != nil {
			return nil, nil, err
		}
		assign := km.Assign
		counts := make([]int, s)
		for _, a := range assign {
			counts[a]++
		}
		// Top up degenerate shards (k-means can leave a cluster with 0
		// or 1 members) from the largest shard, moving the donor point
		// nearest to the starved centroid. n >= 2s guarantees a donor
		// with more than two points exists while any shard is short.
		for sh := 0; sh < s; sh++ {
			for counts[sh] < 2 {
				donor := -1
				for d := 0; d < s; d++ {
					if d != sh && counts[d] > 2 && (donor < 0 || counts[d] > counts[donor]) {
						donor = d
					}
				}
				if donor < 0 {
					return nil, nil, fmt.Errorf("cannot give every one of %d shards 2 of %d points", s, n)
				}
				best, bestD := -1, 0.0
				for i, a := range assign {
					if a != donor {
						continue
					}
					if d := vec.SquaredEuclidean(points[i], km.Centroids[sh]); best < 0 || d < bestD {
						best, bestD = i, d
					}
				}
				assign[best] = sh
				counts[sh]++
				counts[donor]--
			}
		}
		return assign, km.Centroids, nil
	default:
		return nil, nil, fmt.Errorf("unknown partitioner %d", p)
	}
}

// locate resolves a global id. Callers hold mu (any mode) or mutMu.
func (six *ShardedIndex) locate(id int) (shardLoc, error) {
	if id < 0 || id >= len(six.locOf) {
		return shardLoc{}, fmt.Errorf("mogul: item %d outside [0,%d)", id, len(six.locOf))
	}
	loc := six.locOf[id]
	if loc.shard < 0 {
		return shardLoc{}, fmt.Errorf("mogul: item %d is deleted", id)
	}
	return loc, nil
}

// NumShards returns the shard count S (fixed for the index lifetime).
func (six *ShardedIndex) NumShards() int { return len(six.shards) }

// ShardLens returns the live item count of every shard — the balance
// the partitioner achieved.
func (six *ShardedIndex) ShardLens() []int {
	out := make([]int, len(six.shards))
	for s, sh := range six.shards {
		out[s] = sh.Len()
	}
	return out
}

// Len returns the number of live items across all shards.
func (six *ShardedIndex) Len() int {
	total := 0
	for _, sh := range six.shards {
		total += sh.Len()
	}
	return total
}

// Exact reports whether the shards serve exact Manifold Ranking scores
// (MogulE); every shard is built with the same options.
func (six *ShardedIndex) Exact() bool { return six.shards[0].Exact() }

// Version returns the sharded index's monotonic mutation version,
// mirroring Index.Version: it starts at 1 and increases on every
// completed Insert, Delete, and Compact. The bump lands only once the
// mutation is fully visible — shard state and global id maps both —
// so version-stamped caches never capture the transient window where a
// shard already answers with an item the maps cannot yet name.
func (six *ShardedIndex) Version() uint64 { return six.version.Load() }

// Stats aggregates construction statistics across shards: counts and
// times sum, modularity is the node-weighted mean.
func (six *ShardedIndex) Stats() Stats {
	var out Stats
	var wmod float64
	for _, sh := range six.shards {
		st := sh.Stats()
		out.NumNodes += st.NumNodes
		out.NumEdges += st.NumEdges
		out.NumClusters += st.NumClusters
		out.BorderSize += st.BorderSize
		out.FactorNNZ += st.FactorNNZ
		out.ClampedPivots += st.ClampedPivots
		out.ClusterTime += st.ClusterTime
		out.PermuteTime += st.PermuteTime
		out.FactorTime += st.FactorTime
		wmod += st.Modularity * float64(st.NumNodes)
	}
	if out.NumNodes > 0 {
		out.Modularity = wmod / float64(out.NumNodes)
	}
	return out
}

// Delta aggregates the dynamic state across shards.
func (six *ShardedIndex) Delta() DeltaStats {
	var out DeltaStats
	for _, sh := range six.shards {
		d := sh.Delta()
		out.BaseItems += d.BaseItems
		out.DeltaItems += d.DeltaItems
		out.Tombstones += d.Tombstones
	}
	return out
}

// Neighbors returns an item's graph context inside its owning shard,
// remapped to global ids. Edges never cross shards, so the neighbour
// list of a boundary item reflects the shard's view of the manifold,
// not the global one.
func (six *ShardedIndex) Neighbors(item int) (ids []int, weights []float64, err error) {
	six.mu.RLock()
	defer six.mu.RUnlock()
	loc, err := six.locate(item)
	if err != nil {
		return nil, nil, err
	}
	ids, weights, err = six.shards[loc.shard].Neighbors(loc.local)
	if err != nil {
		return nil, nil, fmt.Errorf("mogul: item %d (shard %d): %w", item, loc.shard, err)
	}
	l2g := six.l2g[loc.shard]
	for i, local := range ids {
		ids[i] = l2g[local]
	}
	return ids, weights, nil
}

// ShardedSearcher is the per-worker reusable query engine of a
// ShardedIndex: it pins one Searcher (and therefore one scratch
// workspace) to every shard plus the merge buffers, so a steady-state
// fan-out search allocates only the S per-shard result slices and the
// merged output. Not safe for concurrent use — one per goroutine.
type ShardedSearcher struct {
	six *ShardedIndex
	srs []*Searcher

	// Merge scratch: items backs the remapped per-shard candidate
	// lists; merged receives the k-way merge; seeds expands TopKSet;
	// resBuf/affBuf stage per-shard results and affinities when every
	// shard must answer before the scales are known (TopKVector).
	merger topk.Merger
	lists  [][]topk.Item
	items  []topk.Item
	merged []topk.Item
	seeds  []core.WeightedQuery
	resBuf [][]Result
	affBuf []float64
	info   SearchInfo
}

// NewSearcher returns a dedicated reusable fan-out query engine.
func (six *ShardedIndex) NewSearcher() *ShardedSearcher {
	srs := make([]*Searcher, len(six.shards))
	for s, sh := range six.shards {
		srs[s] = sh.NewSearcher()
	}
	return &ShardedSearcher{six: six, srs: srs, lists: make([][]topk.Item, len(six.shards))}
}

// acquire borrows a pooled ShardedSearcher for one query; pair with
// release. The pool-based ShardedIndex methods use this so plain calls
// stay allocation-free in steady state, like the Index ones.
func (six *ShardedIndex) acquire() *ShardedSearcher {
	if ss, ok := six.searchers.Get().(*ShardedSearcher); ok {
		return ss
	}
	return six.NewSearcher()
}

func (six *ShardedIndex) release(ss *ShardedSearcher) { six.searchers.Put(ss) }

// resetLists readies the merge scratch for a new query.
func (ss *ShardedSearcher) resetLists() {
	ss.items = ss.items[:0]
	for s := range ss.lists {
		ss.lists[s] = nil
	}
	ss.info = SearchInfo{}
}

// addList remaps one shard's ranked results to global ids, scales the
// scores by the shard's affinity weight, and records them as a merge
// input. Within-shard order is (score desc, local id asc); the
// local->global remap need not be monotone (k-means partitions), so
// the list is re-sorted into the global order the merger expects
// (scaling by a non-negative factor preserves within-list score
// order). Appends may grow the flat backing buffer; earlier lists keep
// pointing at the old backing array, whose contents stay valid for the
// rest of the query.
func (ss *ShardedSearcher) addList(s int, res []Result, scale float64) {
	l2g := ss.six.l2g[s]
	start := len(ss.items)
	for _, r := range res {
		if r.Node >= len(l2g) {
			// An insert that landed in the shard but has not reached
			// the id maps yet (Insert appends them right after, under
			// the write lock this search excludes): skip it for this
			// query — its global id has not even been returned to the
			// inserter.
			continue
		}
		ss.items = append(ss.items, topk.Item{ID: l2g[r.Node], Score: scale * r.Score})
	}
	list := ss.items[start:]
	sortItems(list)
	ss.lists[s] = list
}

// relativeAffinity prices a non-owning shard's contribution against
// the owner's own kernel affinity: min(1, aff/own). A degenerate owner
// affinity (underflow to 0) falls back to the absolute affinity.
func relativeAffinity(aff, own float64) float64 {
	if own <= 0 {
		return aff
	}
	if aff >= own {
		return 1
	}
	return aff / own
}

// sortItems sorts a candidate list by the global ranking order
// (score descending, ties by ascending global id) in place.
func sortItems(items []topk.Item) {
	slices.SortFunc(items, func(a, b topk.Item) int {
		switch {
		case topk.Better(a, b):
			return -1
		case topk.Better(b, a):
			return 1
		default:
			return 0
		}
	})
}

// finish merges the per-shard lists into the global top-k and
// materializes the returned results — the one output allocation.
func (ss *ShardedSearcher) finish(k int) []Result {
	ss.merged = ss.merger.Merge(ss.merged, k, ss.lists...)
	out := make([]Result, len(ss.merged))
	for i, it := range ss.merged {
		out[i] = Result{Node: it.ID, Score: it.Score}
	}
	return out
}

// TopK ranks all shards against an in-database query item (global id):
// the owning shard runs the normal in-database search, every other
// shard scores the query's feature vector through the out-of-sample
// path, and the per-shard top-k lists merge into one global ranking.
func (ss *ShardedSearcher) TopK(query, k int) ([]Result, error) {
	res, _, err := ss.topK(query, k, false)
	return res, err
}

// TopKWithInfo is TopK plus work counters summed across shards.
func (ss *ShardedSearcher) TopKWithInfo(query, k int) ([]Result, *SearchInfo, error) {
	res, info, err := ss.topK(query, k, true)
	if err != nil {
		return nil, nil, err
	}
	return res, info, nil
}

func (ss *ShardedSearcher) topK(query, k int, wantInfo bool) ([]Result, *SearchInfo, error) {
	six := ss.six
	six.mu.RLock()
	defer six.mu.RUnlock()
	if k <= 0 {
		return nil, nil, fmt.Errorf("mogul: K must be positive, got %d", k)
	}
	loc, err := six.locate(query)
	if err != nil {
		return nil, nil, err
	}
	owner := six.shards[loc.shard]
	ss.resetLists()

	// The owning shard answers at full weight. Every other shard's
	// out-of-sample answers are scaled by its raw kernel affinity to
	// the query relative to the owner's own (its per-shard scores are
	// normalized to unit query mass and would otherwise merge at face
	// value): a shard the query is far from contributes ~nothing, a
	// shard just across a partition boundary competes near par.
	res, err := ss.srs[loc.shard].TopK(loc.local, k)
	if err != nil {
		return nil, nil, fmt.Errorf("mogul: item %d (shard %d): %w", query, loc.shard, err)
	}
	ss.addList(loc.shard, res, 1)
	if wantInfo {
		ss.accumulateInfo(loc.shard)
	}
	if len(six.shards) > 1 {
		// The query's stored vector probes the non-owning shards.
		qvec, err := owner.core.Point(loc.local)
		if err != nil {
			return nil, nil, fmt.Errorf("mogul: item %d (shard %d): %w", query, loc.shard, err)
		}
		srOwn := ss.srs[loc.shard]
		ownAff, err := owner.core.SurrogateAffinity(&srOwn.s, qvec)
		if err != nil {
			return nil, nil, fmt.Errorf("mogul: item %d (shard %d): %w", query, loc.shard, err)
		}
		for s := range six.shards {
			if s == loc.shard {
				continue
			}
			res, err := ss.srs[s].TopKVector(qvec, k)
			if err != nil {
				return nil, nil, fmt.Errorf("mogul: item %d (shard %d): %w", query, s, err)
			}
			ss.addList(s, res, relativeAffinity(ss.srs[s].s.OOSAffinity(), ownAff))
			if wantInfo {
				ss.accumulateInfo(s)
			}
		}
	}
	out := ss.finish(k)
	if !wantInfo {
		return out, nil, nil
	}
	info := ss.info
	return out, &info, nil
}

// accumulateInfo folds shard s's per-query work counters into the
// fan-out totals.
func (ss *ShardedSearcher) accumulateInfo(s int) {
	info := ss.srs[s].s.Info()
	ss.info.ClustersPruned += info.ClustersPruned
	ss.info.ClustersScanned += info.ClustersScanned
	ss.info.ScoresComputed += info.ScoresComputed
}

// TopKVector ranks all shards against an out-of-sample query vector
// and merges. Each shard's contribution is scaled by its raw kernel
// affinity to the query relative to the best shard's, so the shards
// holding the query's region dominate the merge the way they dominate
// the unsharded ranking; when every shard is equally remote (all
// affinities underflow to 0) the lists merge unscaled.
func (ss *ShardedSearcher) TopKVector(q Vector, k int) ([]Result, error) {
	six := ss.six
	six.mu.RLock()
	defer six.mu.RUnlock()
	if k <= 0 {
		return nil, fmt.Errorf("mogul: K must be positive, got %d", k)
	}
	ss.resetLists()
	if cap(ss.resBuf) < len(six.shards) {
		ss.resBuf = make([][]Result, len(six.shards))
		ss.affBuf = make([]float64, len(six.shards))
	}
	resBuf, affBuf := ss.resBuf[:len(six.shards)], ss.affBuf[:len(six.shards)]
	maxAff := 0.0
	for s := range six.shards {
		res, err := ss.srs[s].TopKVector(q, k)
		if err != nil {
			return nil, fmt.Errorf("mogul: shard %d: %w", s, err)
		}
		resBuf[s] = res
		affBuf[s] = ss.srs[s].s.OOSAffinity()
		if affBuf[s] > maxAff {
			maxAff = affBuf[s]
		}
	}
	for s := range six.shards {
		scale := 1.0
		if maxAff > 0 {
			scale = affBuf[s] / maxAff
		}
		ss.addList(s, resBuf[s], scale)
		resBuf[s] = nil
	}
	return ss.finish(k), nil
}

// TopKSet ranks items against a set of seed items with equal weights.
// Each shard is searched with the seeds it owns, every seed weighted
// 1/len(seeds) so query mass is consistent across the fan-out; shards
// owning no seed contribute nothing (diffusion cannot reach them —
// the set-query recall trade-off of sharding, see docs/SHARDING.md).
func (ss *ShardedSearcher) TopKSet(seeds []int, k int) ([]Result, error) {
	six := ss.six
	six.mu.RLock()
	defer six.mu.RUnlock()
	if len(seeds) == 0 {
		return nil, fmt.Errorf("mogul: TopKSet needs at least one seed item")
	}
	if k <= 0 {
		return nil, fmt.Errorf("mogul: K must be positive, got %d", k)
	}
	ss.resetLists()
	w := 1 / float64(len(seeds))
	for s := range six.shards {
		ss.seeds = ss.seeds[:0]
		for _, seed := range seeds {
			loc, err := six.locate(seed)
			if err != nil {
				return nil, err
			}
			if loc.shard == s {
				ss.seeds = append(ss.seeds, core.WeightedQuery{Node: loc.local, Weight: w})
			}
		}
		if len(ss.seeds) == 0 {
			continue
		}
		sr := ss.srs[s]
		res, _, err := sr.ix.core.SearchMultiScratch(&sr.s, ss.seeds, core.SearchOptions{K: k})
		if err != nil {
			return nil, fmt.Errorf("mogul: shard %d: %w", s, err)
		}
		ss.addList(s, res, 1)
	}
	return ss.finish(k), nil
}

// TopK is ShardedSearcher.TopK on a pooled fan-out workspace.
func (six *ShardedIndex) TopK(query, k int) ([]Result, error) {
	ss := six.acquire()
	defer six.release(ss)
	return ss.TopK(query, k)
}

// TopKWithInfo is TopK plus work counters summed across shards.
func (six *ShardedIndex) TopKWithInfo(query, k int) ([]Result, *SearchInfo, error) {
	ss := six.acquire()
	defer six.release(ss)
	return ss.TopKWithInfo(query, k)
}

// TopKVector is ShardedSearcher.TopKVector on a pooled workspace.
func (six *ShardedIndex) TopKVector(q Vector, k int) ([]Result, error) {
	ss := six.acquire()
	defer six.release(ss)
	return ss.TopKVector(q, k)
}

// TopKSet is ShardedSearcher.TopKSet on a pooled workspace.
func (six *ShardedIndex) TopKSet(seeds []int, k int) ([]Result, error) {
	ss := six.acquire()
	defer six.release(ss)
	return ss.TopKSet(seeds, k)
}

// TopKBatch answers many in-database queries concurrently, one pinned
// ShardedSearcher per worker, mirroring Index.TopKBatch.
func (six *ShardedIndex) TopKBatch(queries []int, k, parallelism int) []BatchResult {
	return topKBatch(six.NewQuerier, queries, k, parallelism)
}

// TopKVectorBatch answers many out-of-sample queries concurrently,
// mirroring Index.TopKVectorBatch.
func (six *ShardedIndex) TopKVectorBatch(queries []Vector, k, parallelism int) []BatchResult {
	return topKVectorBatch(six.NewQuerier, queries, k, parallelism)
}

// routeInsert picks the owning shard for a new point: the nearest
// k-means centroid, or — under contiguous partitioning, whose ranges
// carry no geometry — the shard with the fewest live items (lowest id
// wins ties), which keeps the fan-out balanced. Callers hold mutMu.
func (six *ShardedIndex) routeInsert(v Vector) int {
	if six.part == PartitionKMeans && len(six.centroids) == len(six.shards) {
		best, bestD := 0, vec.SquaredEuclidean(v, six.centroids[0])
		for s := 1; s < len(six.centroids); s++ {
			if d := vec.SquaredEuclidean(v, six.centroids[s]); d < bestD {
				best, bestD = s, d
			}
		}
		return best
	}
	best := 0
	for s := 1; s < len(six.shards); s++ {
		if six.shards[s].Len() < six.shards[best].Len() {
			best = s
		}
	}
	return best
}

// Insert adds a new point to its owning shard and returns its global
// id. The point is immediately searchable through every fan-out path.
// Global ids are stable: they survive shard compaction (only the
// internal shard-local ids renumber). When Options.AutoCompactFraction
// was set at build time, an insert that pushes the owning shard's
// pending delta past the fraction triggers a compaction of that shard
// alone.
func (six *ShardedIndex) Insert(v Vector) (int, error) {
	six.mutMu.Lock()
	defer six.mutMu.Unlock()
	s := six.routeInsert(v)

	// The shard insert (surrogate selection, delta append) runs
	// outside the fan-out lock so searches on the other S-1 shards
	// never stall behind it; only the id-map appends take the write
	// lock. In the window between the two, a search can already see
	// the new item in the shard's answers with a local id the maps do
	// not cover yet — addList drops such items for that one query (the
	// caller has not even received the global id).
	local, err := six.shards[s].Insert(v)
	if err != nil {
		return 0, err
	}
	six.mu.Lock()
	g := len(six.locOf)
	six.locOf = append(six.locOf, shardLoc{shard: s, local: local})
	six.l2g[s] = append(six.l2g[s], g)
	six.mu.Unlock()

	if six.autoCompact > 0 {
		d := six.shards[s].Delta()
		if float64(d.DeltaItems+d.Tombstones) > six.autoCompact*float64(d.BaseItems) {
			// Mirrors the single-index auto path: the insert has already
			// succeeded, so a compaction failure is deferred to an
			// explicit Compact rather than failing the insert.
			_, _ = six.compactShardLocked(s)
		}
	}
	six.version.Add(1)
	return g, nil
}

// Delete tombstones an item in its owning shard. Like Index.Delete,
// deleting an unknown or already-deleted id is an error, and every
// shard must keep at least one live item.
func (six *ShardedIndex) Delete(id int) error {
	six.mutMu.Lock()
	defer six.mutMu.Unlock()
	loc, err := six.locate(id)
	if err != nil {
		return err
	}
	if err := six.shards[loc.shard].Delete(loc.local); err != nil {
		return fmt.Errorf("mogul: item %d (shard %d): %w", id, loc.shard, err)
	}
	six.version.Add(1)
	return nil
}

// Compact folds every shard's delta layer into a fresh per-shard base
// build. Global ids are preserved; shard-local renumbering after
// deletions is absorbed into the id maps. Insert-only shards compact
// without blocking searches; a shard with tombstones holds the
// fan-out write lock for its rebuild, so searches pause for that
// shard's compaction.
func (six *ShardedIndex) Compact() error {
	six.mutMu.Lock()
	defer six.mutMu.Unlock()
	for s := range six.shards {
		if _, err := six.compactShardLocked(s); err != nil {
			return fmt.Errorf("mogul: compacting shard %d: %w", s, err)
		}
	}
	return nil
}

// compactShardLocked compacts one shard and maintains the id maps,
// reporting whether the shard had anything to fold in. The version
// bump happens HERE, per shard, the moment that shard's swap is
// visible — not once at the end of the whole Compact — because each
// swap changes answers (a folded-in delta item scores through real
// graph edges instead of surrogates) and a version-stamped cache must
// never serve pre-swap answers as current while the remaining shards
// rebuild, nor when a later shard's rebuild fails. Callers hold mutMu.
func (six *ShardedIndex) compactShardLocked(s int) (bool, error) {
	sh := six.shards[s]
	d := sh.Delta()
	if d.DeltaItems == 0 && d.Tombstones == 0 {
		return false, nil
	}
	if d.Tombstones == 0 {
		// Insert-only: shard compaction preserves local ids bit for bit
		// (Compact's determinism guarantee), so the id maps stay valid
		// and searches keep running throughout the rebuild.
		if err := sh.Compact(); err != nil {
			return false, err
		}
		six.version.Add(1)
		return true, nil
	}
	// Tombstones renumber local ids. Snapshot liveness first (mutators
	// are serialized, searches cannot change it), then rebuild under
	// the fan-out write lock so no search can pair the new shard state
	// with the old maps.
	space := sh.core.IDSpace()
	alive := make([]bool, space)
	for i := range alive {
		alive[i] = sh.core.Alive(i)
	}
	six.mu.Lock()
	defer six.mu.Unlock()
	if err := sh.Compact(); err != nil {
		return false, err
	}
	old := six.l2g[s]
	j := 0
	for local, g := range old {
		if local < len(alive) && alive[local] {
			// Live items keep their relative order through Compact.
			old[j] = g
			six.locOf[g] = shardLoc{shard: s, local: j}
			j++
		} else {
			// The global id of a compacted-away item is retired forever.
			six.locOf[g] = shardLoc{shard: -1, local: -1}
		}
	}
	six.l2g[s] = old[:j]
	// Still under the fan-out write lock: searches observe the new
	// shard state and the new version together.
	six.version.Add(1)
	return true, nil
}
