package mogul

// Test harness pinning the sharded index to the single-index oracle.
//
// Three layers of evidence, from exact to statistical:
//
//  1. S = 1 is bit-identical to a plain Index: one shard over
//     everything IS the single build (same sigma derivation, same
//     graph, same factor), so every score must match exactly.
//  2. Equivalence property: the fan-out is rank- and score-identical
//     to an oracle assembled by hand from independent per-partition
//     indexes (owner searched in-database, the rest out-of-sample,
//     affinity-scaled, merged globally) — proving the ShardedIndex
//     adds nothing beyond partition + fan-out + merge.
//  3. Recall@10 >= 0.9 against the unsharded oracle for S in
//     {1, 2, 4, 8} on two-moons and random mixtures, on exact
//     (MogulE) scores — which isolates the sharded fan-out model from
//     IC(0) approximation noise: the incomplete factor depends on the
//     node ordering, so per-shard orderings perturb approximate
//     scores near the rank cut even when the fan-out is faithful. The
//     default approximate mode is pinned separately at >= 0.8.

import (
	"math"
	"slices"
	"sort"
	"testing"

	"mogul/internal/fanout"
)

// shardTestDatasets are the two dataset families the recall properties
// run on: the canonical manifold pattern and a labelled random
// mixture.
func shardTestDatasets() map[string]*Dataset {
	return map[string]*Dataset{
		"two-moons": NewTwoMoons(TwoMoonsConfig{N: 800, Noise: 0.06, Seed: 5}),
		"random":    NewMixture(MixtureConfig{N: 800, Classes: 8, Dim: 12, WithinStd: 0.25, Separation: 4, Seed: 11}),
	}
}

func sampleQueries(n, stride int) []int {
	out := []int{}
	for q := 0; q < n; q += stride {
		out = append(out, q)
	}
	return out
}

// TestShardedS1BitIdentical: with a single shard, every fan-out path
// returns exactly what the plain Index returns — scores included — for
// both partitioners and both factorization modes.
func TestShardedS1BitIdentical(t *testing.T) {
	ds := NewMixture(MixtureConfig{N: 400, Classes: 8, Dim: 12, WithinStd: 0.25, Separation: 3, Seed: 7})
	for _, exact := range []bool{false, true} {
		for _, part := range []Partitioner{PartitionContiguous, PartitionKMeans} {
			opts := Options{Seed: 3, Exact: exact}
			plain, err := Build(ds.Points, opts)
			if err != nil {
				t.Fatal(err)
			}
			six, err := BuildSharded(ds.Points, opts, ShardOptions{Shards: 1, Partitioner: part})
			if err != nil {
				t.Fatal(err)
			}
			if six.NumShards() != 1 || six.Len() != plain.Len() {
				t.Fatalf("S=1 shape: shards=%d len=%d", six.NumShards(), six.Len())
			}
			for _, q := range sampleQueries(ds.Len(), 37) {
				a, err := plain.TopK(q, 10)
				if err != nil {
					t.Fatal(err)
				}
				b, err := six.TopK(q, 10)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(a, b) {
					t.Fatalf("exact=%v part=%d TopK(%d) differs:\nplain   %v\nsharded %v", exact, part, q, a, b)
				}
			}
			qv := slices.Clone(ds.Points[3])
			qv[0] += 0.05
			a, err := plain.TopKVector(qv, 10)
			if err != nil {
				t.Fatal(err)
			}
			b, err := six.TopKVector(qv, 10)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(a, b) {
				t.Fatalf("exact=%v part=%d TopKVector differs", exact, part)
			}
			a, err = plain.TopKSet([]int{3, 4, 5}, 10)
			if err != nil {
				t.Fatal(err)
			}
			b, err = six.TopKSet([]int{3, 4, 5}, 10)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(a, b) {
				t.Fatalf("exact=%v part=%d TopKSet differs", exact, part)
			}
		}
	}
}

// handOracle is an independent reimplementation of the fan-out over
// per-partition plain Indexes: the owner partition answers the
// in-database search, every other partition answers out-of-sample
// scaled by its affinity relative to the owner's, and the global top-k
// comes from sorting the concatenated candidates. Rank- and
// score-identity against it proves the ShardedIndex is exactly
// "partition + fan-out + merge" and nothing more.
type handOracle struct {
	parts  []*Index
	l2g    [][]int        // partition-local id -> global id
	locOf  map[int][2]int // global id -> (partition, local)
	points []Vector
}

func newHandOracle(t *testing.T, points []Vector, opts Options, shards int) *handOracle {
	t.Helper()
	// Mirror BuildSharded's per-shard options: no shard-local
	// auto-compaction, one pinned bandwidth across partitions.
	opts.AutoCompactFraction = 0
	if shards > 1 && opts.Sigma == 0 {
		k := opts.GraphK
		if k <= 0 {
			k = 5
		}
		opts.Sigma = EstimateSigma(points, k)
	}
	h := &handOracle{locOf: map[int][2]int{}, points: points}
	n := len(points)
	for s := 0; s < shards; s++ {
		lo, hi := s*n/shards, (s+1)*n/shards
		ix, err := Build(points[lo:hi], opts)
		if err != nil {
			t.Fatal(err)
		}
		h.parts = append(h.parts, ix)
		var m []int
		for g := lo; g < hi; g++ {
			h.locOf[g] = [2]int{s, g - lo}
			m = append(m, g)
		}
		h.l2g = append(h.l2g, m)
	}
	return h
}

func (h *handOracle) insert(t *testing.T, v Vector) int {
	t.Helper()
	// BuildSharded's contiguous insert routing: fewest live items,
	// lowest partition id on ties.
	best := 0
	for s := 1; s < len(h.parts); s++ {
		if h.parts[s].Len() < h.parts[best].Len() {
			best = s
		}
	}
	local, err := h.parts[best].Insert(v)
	if err != nil {
		t.Fatal(err)
	}
	g := len(h.locOf)
	h.locOf[g] = [2]int{best, local}
	h.l2g[best] = append(h.l2g[best], g)
	h.points = append(h.points, v)
	return g
}

func (h *handOracle) topK(t *testing.T, query, k int) []Result {
	t.Helper()
	loc := h.locOf[query]
	qvec := h.points[query]
	var all []Result
	ownRes, err := h.parts[loc[0]].TopK(loc[1], k)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ownRes {
		all = append(all, Result{Node: h.l2g[loc[0]][r.Node], Score: r.Score})
	}
	var ownAff float64
	if len(h.parts) > 1 {
		// The public breakdown carries the same affinity the sharded
		// fan-out reads internally (surrogate selection is
		// deterministic, so a probe query reproduces it exactly).
		_, bd, err := h.parts[loc[0]].TopKVectorWithInfo(qvec, 1)
		if err != nil {
			t.Fatal(err)
		}
		ownAff = bd.Affinity
	}
	for s, part := range h.parts {
		if s == loc[0] {
			continue
		}
		res, bd, err := part.TopKVectorWithInfo(qvec, k)
		if err != nil {
			t.Fatal(err)
		}
		scale := fanout.RelativeAffinity(bd.Affinity, ownAff)
		for _, r := range res {
			all = append(all, Result{Node: h.l2g[s][r.Node], Score: scale * r.Score})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Node < all[j].Node
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// TestShardedEquivalenceToHandMerge: for insert-only workloads with
// the contiguous partitioner, fan-out results are rank-identical (and
// score-identical within 1e-9) to the hand-assembled per-partition
// oracle — before and after online inserts.
func TestShardedEquivalenceToHandMerge(t *testing.T) {
	ds := NewMixture(MixtureConfig{N: 440, Classes: 8, Dim: 12, WithinStd: 0.3, Separation: 2.5, Seed: 13})
	base, extra := ds.Points[:400], ds.Points[400:]
	opts := Options{Seed: 3}
	for _, shards := range []int{2, 4} {
		six, err := BuildSharded(base, opts, ShardOptions{Shards: shards, Partitioner: PartitionContiguous})
		if err != nil {
			t.Fatal(err)
		}
		oracle := newHandOracle(t, base, opts, shards)

		check := func(stage string) {
			t.Helper()
			for _, q := range sampleQueries(six.Len(), 41) {
				got, err := six.TopK(q, 10)
				if err != nil {
					t.Fatal(err)
				}
				want := oracle.topK(t, q, 10)
				if len(got) != len(want) {
					t.Fatalf("S=%d %s TopK(%d): %d results, oracle %d", shards, stage, q, len(got), len(want))
				}
				for i := range want {
					if got[i].Node != want[i].Node {
						t.Fatalf("S=%d %s TopK(%d) rank %d: item %d, oracle %d\ngot  %v\nwant %v",
							shards, stage, q, i, got[i].Node, want[i].Node, got, want)
					}
					if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
						t.Fatalf("S=%d %s TopK(%d) rank %d: score %g, oracle %g",
							shards, stage, q, i, got[i].Score, want[i].Score)
					}
				}
			}
		}
		check("fresh")

		for _, p := range extra {
			g, err := six.Insert(p)
			if err != nil {
				t.Fatal(err)
			}
			if og := oracle.insert(t, p); og != g {
				t.Fatalf("S=%d insert ids diverge: sharded %d, oracle %d", shards, g, og)
			}
		}
		check("after inserts")
	}
}

// shardRecall returns mean recall@k of the sharded fan-out against the
// unsharded index.
func shardRecall(t *testing.T, six *ShardedIndex, oracle *Index, queries []int, k int) float64 {
	t.Helper()
	var total float64
	for _, q := range queries {
		got, err := six.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		ref := make(map[int]bool, len(want))
		for _, r := range want {
			ref[r.Node] = true
		}
		hits := 0
		for _, r := range got {
			if ref[r.Node] {
				hits++
			}
		}
		total += float64(hits) / float64(len(want))
	}
	return total / float64(len(queries))
}

// TestShardedRecallVsOracle: the acceptance property. On exact
// (MogulE) scores — isolating the fan-out model from IC(0) ordering
// noise — recall@10 against the unsharded oracle stays >= 0.9 for
// S in {1, 2, 4, 8} on both dataset families, and S = 1 is exact. The
// default approximate mode, whose incomplete factor differs per shard
// ordering, is pinned at >= 0.8 on the same grid.
func TestShardedRecallVsOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 2 datasets x 2 modes x 4 shard counts")
	}
	for name, ds := range shardTestDatasets() {
		queries := sampleQueries(ds.Len(), 23)
		for _, exact := range []bool{true, false} {
			opts := Options{Seed: 3, Exact: exact}
			oracle, err := Build(ds.Points, opts)
			if err != nil {
				t.Fatal(err)
			}
			floor := 0.9
			if !exact {
				floor = 0.8
			}
			for _, shards := range []int{1, 2, 4, 8} {
				six, err := BuildSharded(ds.Points, opts, ShardOptions{Shards: shards, Partitioner: PartitionKMeans})
				if err != nil {
					t.Fatal(err)
				}
				rec := shardRecall(t, six, oracle, queries, 10)
				t.Logf("%s exact=%v S=%d recall@10=%.3f (shard sizes %v)", name, exact, shards, rec, six.ShardLens())
				if shards == 1 && rec != 1 {
					t.Fatalf("%s exact=%v: S=1 recall %.3f, want exactly 1 (bit-identity)", name, exact, rec)
				}
				if rec < floor {
					t.Fatalf("%s exact=%v S=%d: recall@10 %.3f below %.2f", name, exact, shards, rec, floor)
				}
			}
		}
	}
}

// TestShardedDynamicRouting: Insert routes to the owning shard and
// returns stable global ids; Delete tombstones through the routing;
// Compact preserves global ids while renumbering shard-locals; errors
// mirror the single-index contract.
func TestShardedDynamicRouting(t *testing.T) {
	ds := NewMixture(MixtureConfig{N: 460, Classes: 8, Dim: 12, WithinStd: 0.3, Separation: 2.5, Seed: 17})
	base, extra := ds.Points[:400], ds.Points[400:]
	for _, part := range []Partitioner{PartitionContiguous, PartitionKMeans} {
		six, err := BuildSharded(base, Options{Seed: 3}, ShardOptions{Shards: 4, Partitioner: part})
		if err != nil {
			t.Fatal(err)
		}
		// Inserts get consecutive global ids and become searchable.
		var inserted []int
		for _, p := range extra {
			g, err := six.Insert(p)
			if err != nil {
				t.Fatal(err)
			}
			if g != six.Len()-1 {
				t.Fatalf("insert id %d, want %d", g, six.Len()-1)
			}
			inserted = append(inserted, g)
			// A delta item diffuses from its surrogates, so its own
			// score is their weighted mean — the surrogates themselves
			// may outrank it (as on a plain Index), but it must be
			// live and searchable under its global id.
			res, err := six.TopK(g, six.Len())
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, r := range res {
				found = found || r.Node == g
			}
			if !found {
				t.Fatalf("fresh insert %d missing from its own full ranking", g)
			}
		}
		// A deleted item vanishes from results and can no longer query.
		victimBase, victimDelta := 11, inserted[1]
		for _, victim := range []int{victimBase, victimDelta} {
			if err := six.Delete(victim); err != nil {
				t.Fatal(err)
			}
			if err := six.Delete(victim); err == nil {
				t.Fatalf("double delete of %d accepted", victim)
			}
			if _, err := six.TopK(victim, 3); err == nil {
				t.Fatalf("deleted %d still queries", victim)
			}
			res, err := six.TopK(0, six.Len())
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res {
				if r.Node == victim {
					t.Fatalf("deleted %d still in results", victim)
				}
			}
		}
		if _, err := six.TopK(len(base)+len(extra)+5, 3); err == nil {
			t.Fatal("out-of-range query accepted")
		}
		if err := six.Delete(-1); err == nil {
			t.Fatal("negative delete accepted")
		}
		// A vector of the wrong dimension has no nearest centroid: it is
		// refused, not routed.
		if _, err := six.Insert(extra[0][:5]); err == nil {
			t.Fatal("wrong-dimension insert accepted")
		}

		// Survivors, by global id, with their pre-compaction ranking.
		lenBefore := six.Len()
		before := map[int][]Result{}
		for _, q := range []int{0, 42, 399, inserted[0]} {
			res, err := six.TopK(q, 8)
			if err != nil {
				t.Fatal(err)
			}
			before[q] = res
		}
		if err := six.Compact(); err != nil {
			t.Fatal(err)
		}
		if six.Len() != lenBefore {
			t.Fatalf("Compact changed Len: %d -> %d", lenBefore, six.Len())
		}
		d := six.Delta()
		if d.DeltaItems != 0 || d.Tombstones != 0 {
			t.Fatalf("Compact left delta state: %+v", d)
		}
		// Global ids survive compaction: the same queries still answer
		// under the same ids and place at the very top of their own
		// ranking (a near-duplicate just across a shard boundary may
		// edge ahead through the affinity-scaled cross-shard path, so
		// exact rank 1 is not guaranteed; scores shift — the shard
		// bases were rebuilt over the merged point sets).
		for q := range before {
			res, err := six.TopK(q, 8)
			if err != nil {
				t.Fatalf("query %d after Compact: %v", q, err)
			}
			self := -1
			for i, r := range res {
				if r.Node == q {
					self = i
					break
				}
			}
			if self < 0 || self > 2 {
				t.Fatalf("query %d ranks %d in its own results after Compact: %+v", q, self, res)
			}
		}
		// Retired ids stay dead after compaction.
		if _, err := six.TopK(victimBase, 3); err == nil {
			t.Fatal("compacted-away id queries again")
		}
		if err := six.Delete(victimBase); err == nil {
			t.Fatal("compacted-away id deletes again")
		}
	}
}

// TestShardedBatchAndInterfaces: the batch entry points agree with the
// sequential ones, and both index kinds serve through the shared
// Retriever/Querier surface.
func TestShardedBatchAndInterfaces(t *testing.T) {
	ds := NewMixture(MixtureConfig{N: 400, Classes: 8, Dim: 12, WithinStd: 0.3, Separation: 2.5, Seed: 19})
	six, err := BuildSharded(ds.Points, Options{Seed: 3}, ShardOptions{Shards: 4, Partitioner: PartitionKMeans})
	if err != nil {
		t.Fatal(err)
	}
	queries := sampleQueries(six.Len(), 29)
	batch := six.TopKBatch(queries, 6, 4)
	if len(batch) != len(queries) {
		t.Fatalf("batch size %d, want %d", len(batch), len(queries))
	}
	for i, br := range batch {
		if br.Err != nil {
			t.Fatal(br.Err)
		}
		want, err := six.TopK(queries[i], 6)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(br.Results, want) {
			t.Fatalf("batch query %d differs from sequential", queries[i])
		}
	}
	bad := six.TopKBatch([]int{0, six.Len() + 10}, 3, 2)
	if bad[1].Err == nil || bad[0].Err != nil {
		t.Fatalf("batch error routing wrong: %+v", bad)
	}

	// The Retriever surface serves both kinds interchangeably.
	var r Retriever = six
	qr := r.NewQuerier()
	res, err := qr.TopK(7, 5)
	if err != nil || len(res) != 5 {
		t.Fatalf("querier through interface: %v %v", res, err)
	}
	if _, _, err := qr.TopKWithInfo(7, 5); err != nil {
		t.Fatal(err)
	}
	ids, weights, err := r.Neighbors(7)
	if err != nil || len(ids) == 0 || len(ids) != len(weights) {
		t.Fatalf("Neighbors through interface: %v %v %v", ids, weights, err)
	}
	st := r.Stats()
	if st.NumNodes != 400 || st.NumClusters < 4 {
		t.Fatalf("aggregated stats look wrong: %+v", st)
	}
	if r.Exact() {
		t.Fatal("Exact() true for approximate shards")
	}
}

// TestShardedAutoCompact: the sharded layer owns the auto-compaction
// fraction — a shard whose pending delta outgrows it folds in on
// Insert, without disturbing global ids.
func TestShardedAutoCompact(t *testing.T) {
	ds := NewMixture(MixtureConfig{N: 520, Classes: 8, Dim: 12, WithinStd: 0.3, Separation: 2.5, Seed: 23})
	base, extra := ds.Points[:400], ds.Points[400:]
	six, err := BuildSharded(base, Options{Seed: 3, AutoCompactFraction: 0.1}, ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for _, p := range extra {
		g, err := six.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, g)
	}
	// 120 inserts against a 10% fraction on ~200-item shards must have
	// compacted at least once.
	d := six.Delta()
	if d.DeltaItems >= len(extra) {
		t.Fatalf("auto-compaction never ran: %+v", d)
	}
	// Every insert's global id still answers and appears in its own
	// full ranking (compacted inserts became base items; still-pending
	// ones score as their surrogates' mean).
	for _, g := range ids {
		res, err := six.TopK(g, six.Len())
		if err != nil {
			t.Fatalf("insert %d lost after auto-compact: %v", g, err)
		}
		found := false
		for _, r := range res {
			found = found || r.Node == g
		}
		if !found {
			t.Fatalf("insert %d missing from its own full ranking after auto-compact", g)
		}
	}
}

// TestBuildShardedErrors: input validation.
func TestBuildShardedErrors(t *testing.T) {
	ds := NewMixture(MixtureConfig{N: 20, Classes: 2, Dim: 4, WithinStd: 0.3, Separation: 2.5, Seed: 29})
	if _, err := BuildSharded(ds.Points[:6], Options{}, ShardOptions{Shards: 4}); err == nil {
		t.Fatal("6 points across 4 shards accepted")
	}
	if _, err := BuildSharded(ds.Points, Options{}, ShardOptions{Shards: 2, Partitioner: Partitioner(99)}); err == nil {
		t.Fatal("unknown partitioner accepted")
	}
	six, err := BuildSharded(ds.Points, Options{}, ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := six.TopK(3, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := six.TopKSet(nil, 5); err == nil {
		t.Fatal("empty seed set accepted")
	}
}
