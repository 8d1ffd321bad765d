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
	"slices"
	"sync"

	"mogul/internal/fanout"
	"mogul/internal/kmeans"
	"mogul/internal/knn"
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
	// PartitionKMeans clusters the points with k-means (k = S,
	// k-means++ seeds and one Lloyd step, seeded by Options.Seed) so
	// that each shard holds a geometrically
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

// ShardedIndex is a set of per-shard Mogul indexes behind one global
// id space, built by BuildSharded or LoadSharded. It serves the same
// query surface as Index (it implements Retriever) and is safe for
// concurrent use: searches fan out under the id map's read lock while
// Insert/Delete/Compact change the map under its write lock.
type ShardedIndex struct {
	// set is the shard-set lifecycle over the global id space: fan-out
	// searches hold its read lock for the whole query, mutators and Save
	// its mutator lock. It asks the shards through member.
	set *fanout.Set

	shards []*Index

	// searchers recycles ShardedSearchers for the pool-based entry
	// points (TopK etc.), mirroring the per-Index scratch pool.
	searchers sync.Pool
}

// newShardedIndex puts shards behind the global id space partition
// describes (partition[s] lists shard s's global ids in local order),
// cross-checking every table against its shard's own id space and
// seeding the map's delta counts from the shards'. centroids are the
// k-means routing centroids, nil for a contiguous partition: the set
// holds them, and Save reads the partitioner back from them.
func newShardedIndex(shards []*Index, partition [][]int, globals int, centroids []Vector, autoCompact float64) (*ShardedIndex, error) {
	shapes := make([]fanout.Shape, len(shards))
	for s, sh := range shards {
		shapes[s] = fanout.Shape{Space: sh.IDSpace(), Live: sh.Len(), Delta: sh.Delta(), Exact: sh.Exact()}
	}
	six := &ShardedIndex{shards: shards}
	set, err := fanout.NewSet("mogul", six.member, partition, globals, shapes, centroids, autoCompact)
	if err != nil {
		return nil, err
	}
	six.set = set
	return six, nil
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
	members, centroids, err := partitionPoints(points, s, sopts.Partitioner, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("mogul: partitioning: %w", err)
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
	fanout.ForEach(s, sopts.Parallelism, func() func(int) {
		return func(sh int) {
			pts := make([]Vector, len(members[sh]))
			for i, g := range members[sh] {
				pts[i] = points[g]
			}
			shards[sh], errs[sh] = Build(pts, shardOpts)
		}
	})
	for sh, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("mogul: building shard %d: %w", sh, err)
		}
	}
	return newShardedIndex(shards, members, len(points), centroids, opts.AutoCompactFraction)
}

// EstimateSigma estimates the heat-kernel bandwidth a single Build
// would derive over the dataset — the standard deviation of all
// k-nearest-neighbour distances — from a deterministic sample of up to
// 512 points. Each sample's exact k-NN over the full dataset comes from
// one k-d tree (knn.Tree): its k+1 nearest, itself dropped by id. The
// tree's answers are the scan's, so the distances, in ascending order,
// and the estimate are the bits a scan over all n points per sample
// gives, at a fraction of its cost. BuildSharded pins this estimate
// across its shards so every shard weighs edges on the same kernel; it
// is exported so tests and tools can construct reference indexes on
// the identical bandwidth.
func EstimateSigma(points []Vector, k int) float64 {
	const maxSample = 512
	n := len(points)
	m := min(n, maxSample)
	dists := make([]float64, m*k)
	counts := make([]int, m)
	if m > 0 {
		rows := vec.AliasRows(points, len(points[0]))
		tree := knn.NewTree(&rows)
		fanout.ForEach(m, 0, func() func(int) {
			var sc knn.Scratch
			return func(si int) {
				i := si * n / m
				sc.Reset(k + 1)
				tree.Offer(&sc, &rows, points[i], nil)
				row := dists[si*k : si*k : (si+1)*k]
				for _, nb := range sc.Sorted() {
					if nb.ID != i && len(row) < k {
						row = append(row, math.Sqrt(nb.Dist))
					}
				}
				counts[si] = len(row)
			}
		})
	}
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

// partitionPoints computes the partition for s shards — each shard's
// point ids, ascending — and, for k-means, the routing centroids. Every
// shard is guaranteed at least two points, the Build minimum.
func partitionPoints(points []Vector, s int, p Partitioner, seed int64) ([][]int, []Vector, error) {
	n := len(points)
	switch p {
	case PartitionContiguous:
		return fanout.ContiguousPartition(n, s), nil, nil
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
		members := make([][]int, s)
		for g, sh := range assign {
			members[sh] = append(members[sh], g)
		}
		return members, km.Centroids, nil
	default:
		return nil, nil, fmt.Errorf("unknown partitioner %d", p)
	}
}

// NumShards returns the shard count S (fixed for the index lifetime).
func (six *ShardedIndex) NumShards() int { return len(six.shards) }

// Shards returns the per-shard indexes in shard order. They stay owned
// by the sharded index: mutating one directly desynchronizes the global
// id space, so either keep mutating through the ShardedIndex or stop
// using it (dist.BuildShardIndexes hands them to shard servers).
func (six *ShardedIndex) Shards() []*Index { return slices.Clone(six.shards) }

// Partition returns every shard's global ids in shard-local order — the
// argument dist.NewCoordinator takes.
func (six *ShardedIndex) Partition() [][]int { return six.set.Partition() }

// ShardLens returns the live item count of every shard — the balance
// the partitioner achieved.
func (six *ShardedIndex) ShardLens() []int {
	out := make([]int, len(six.shards))
	for s, sh := range six.shards {
		out[s] = sh.Len()
	}
	return out
}

// Len returns the number of live items across all shards, as the id
// map counts them (the sharded index is its shards' only mutator).
func (six *ShardedIndex) Len() int { return six.set.Len() }

// Exact reports whether the shards serve exact Manifold Ranking scores
// (MogulE); every shard is built with the same options.
func (six *ShardedIndex) Exact() bool { return six.set.Exact() }

// Version returns the sharded index's monotonic mutation version,
// mirroring Index.Version: it starts at 1 and increases on every
// completed Insert, Delete, and Compact. The bump lands only once the
// mutation is fully visible — shard state and global id map both — so
// version-stamped caches never capture the transient window where a
// shard already answers with an item the map cannot yet name. It
// deliberately is not the sum of the shard versions: a shard bumps
// mid-Insert, before the map covers the new item.
func (six *ShardedIndex) Version() uint64 { return six.set.Version() }

// Stats aggregates construction statistics across shards: counts and
// times sum, modularity is the node-weighted mean.
func (six *ShardedIndex) Stats() Stats { return six.set.Stats(six.member) }

// Delta aggregates the dynamic state across shards, as the id map
// tracks it (the sharded index is its shards' only mutator).
func (six *ShardedIndex) Delta() DeltaStats { return six.set.Delta() }

// Neighbors returns an item's graph context inside its owning shard,
// remapped to global ids. Edges never cross shards, so the neighbour
// list of a boundary item reflects the shard's view of the manifold,
// not the global one.
func (six *ShardedIndex) Neighbors(item int) (ids []int, weights []float64, err error) {
	return six.set.Neighbors(six.member, item)
}

// ShardedSearcher is the per-worker reusable query engine of a
// ShardedIndex: it pins one Searcher (and therefore one scratch
// workspace) to every shard plus the fan-out scratch, so a steady-state
// fan-out search allocates only the per-shard result slices and the
// merged output. Its queries are internal/fanout's flows, dispatched
// over the pinned Searchers (inTurn). Not safe for concurrent use — one
// per goroutine.
type ShardedSearcher struct {
	six *ShardedIndex
	srs []*Searcher

	flow fanout.Flow
	info SearchInfo // the last query's work, summed across the shards asked
}

// NewSearcher returns a dedicated reusable fan-out query engine.
func (six *ShardedIndex) NewSearcher() *ShardedSearcher {
	srs := make([]*Searcher, len(six.shards))
	for s, sh := range six.shards {
		srs[s] = sh.NewSearcher()
	}
	return &ShardedSearcher{six: six, srs: srs}
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

// TopK ranks all shards against an in-database query item (global id):
// the owning shard runs the normal in-database search, every other
// shard that its probe bound does not rule out (fanout.Gated) scores
// the query's feature vector through the out-of-sample path, and the
// per-shard top-k lists merge into one global ranking.
func (ss *ShardedSearcher) TopK(query, k int) ([]Result, error) {
	return ss.flow.TopK(ss.six.set, (*inTurn)(ss), query, k)
}

// TopKWithInfo is TopK plus work counters summed across shards.
func (ss *ShardedSearcher) TopKWithInfo(query, k int) ([]Result, *SearchInfo, error) {
	res, err := ss.TopK(query, k)
	if err != nil {
		return nil, nil, err
	}
	info := ss.info
	return res, &info, nil
}

// TopKVector ranks all shards against an out-of-sample query vector
// and merges, each shard priced against the best one.
func (ss *ShardedSearcher) TopKVector(q Vector, k int) ([]Result, error) {
	return ss.flow.TopKVector(ss.six.set, (*inTurn)(ss), q, k)
}

// TopKSet ranks items against a set of seed items with equal weights.
// Each shard is searched with the seeds it owns; shards owning no seed
// contribute nothing (the set-query recall trade-off of sharding, see
// docs/SHARDING.md).
func (ss *ShardedSearcher) TopKSet(seeds []int, k int) ([]Result, error) {
	return ss.flow.TopKSet(ss.six.set, (*inTurn)(ss), seeds, k)
}

// inTurn is a ShardedSearcher as fanout's flows drive it: each shard's
// pinned Searcher answers in turn, the first error fails the query, and
// the work of every answer is summed into info.
type inTurn ShardedSearcher

// Unanswered is never reached: a shard that does not answer fails the
// query first.
func (d *inTurn) Unanswered(what string) error { return fmt.Errorf("mogul: no %s answered", what) }

// Owner answers with TopK alone over one shard, which is then a plain
// Index bit for bit; it starts the query's work counters at its own.
func (d *inTurn) Owner(item int, loc fanout.Loc, k int) (res []Result, q Vector, aff float64, err error) {
	sr := d.srs[loc.Shard]
	if len(d.srs) > 1 {
		res, q, aff, err = sr.TopKWithVector(loc.Local, k)
	} else {
		res, err = sr.TopK(loc.Local, k)
	}
	if err != nil {
		return nil, nil, 0, fmt.Errorf("mogul: item %d (shard %d): %w", item, loc.Shard, err)
	}
	d.info = sr.work()
	return res, q, aff, nil
}

func (d *inTurn) Probe(q Vector, k int, ask []bool, mg *fanout.Merge) error {
	return d.each(mg, func(s int) bool { return ask == nil || ask[s] }, func(sr *Searcher, _ int) ([]Result, float64, error) {
		return sr.TopKVectorWithAffinity(q, k)
	})
}

func (d *inTurn) Seeds(groups [][]int, weight float64, k int, mg *fanout.Merge) error {
	return d.each(mg, func(s int) bool { return len(groups[s]) > 0 }, func(sr *Searcher, s int) ([]Result, float64, error) {
		res, err := sr.TopKSetWeighted(groups[s], weight, k)
		return res, 1, err
	})
}

// each asks every shard want selects, in shard order, and stages each
// answer in mg with the affinity call reports.
func (d *inTurn) each(mg *fanout.Merge, want func(s int) bool, call func(sr *Searcher, s int) ([]Result, float64, error)) error {
	for s, sr := range d.srs {
		if !want(s) {
			continue
		}
		res, aff, err := call(sr, s)
		if err != nil {
			return fmt.Errorf("mogul: shard %d: %w", s, err)
		}
		mg.Probe(s, res, aff)
		info := sr.work()
		d.info.ClustersPruned += info.ClustersPruned
		d.info.ClustersScanned += info.ClustersScanned
		d.info.ScoresComputed += info.ScoresComputed
	}
	return nil
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

// Insert adds a new point to its owning shard (the nearest k-means
// centroid, or the least-loaded shard under contiguous partitioning)
// and returns its global id. The point is immediately searchable
// through every fan-out path. Global ids are stable: they survive shard
// compaction (only the internal shard-local ids renumber). When
// Options.AutoCompactFraction was set at build time, an insert that
// pushes the owning shard's pending delta past the fraction triggers a
// compaction of that shard alone.
func (six *ShardedIndex) Insert(v Vector) (int, error) { return six.set.Insert(six.member, v) }

// Delete tombstones an item in its owning shard. Like Index.Delete,
// deleting an unknown or already-deleted id is an error, and every
// shard must keep at least one live item.
func (six *ShardedIndex) Delete(id int) error { return six.set.Delete(six.member, id) }

// Compact folds every shard's delta layer into a fresh per-shard base
// build. Global ids are preserved; shard-local renumbering after
// deletions is absorbed into the id map. Insert-only shards compact
// without blocking searches; a shard with tombstones holds the
// fan-out write lock for its rebuild, so searches pause for that
// shard's compaction.
func (six *ShardedIndex) Compact() error { return six.set.Compact(six.member) }

// member is shard s as the shard-set lifecycle asks it (its
// fanout.Members): the *Index itself, called directly.
func (six *ShardedIndex) member(s int) fanout.Member { return member{six.shards[s]} }

// member is an in-process shard as fanout's lifecycle asks it (Insert,
// Delete, Neighbors, Stats and Compact are the Index's own).
type member struct{ *Index }

func (m member) Bound() (*ProbeBound, error) { return m.ProbeBound(), nil }

func (m member) Liveness() (space int, dead []int, err error) {
	space, dead = m.DeadIDs()
	return space, dead, nil
}
