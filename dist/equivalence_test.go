package dist_test

// Equivalence suite pinning the distributed coordinator to the
// in-process ShardedIndex oracle. The coordinator reimplements the
// exact fan-out/merge over HTTP, and JSON float64 round-trips scores
// bit-exactly, so on the same contiguous partition the merged
// rankings must be IDENTICAL — ids and scores — in exact mode; the
// approximate mode is additionally pinned statistically (recall@10
// >= 0.95) so a regression in either mode is caught by the cheaper
// check first.

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"mogul"
	"mogul/dist"
	"mogul/dist/disttest"
)

// equivCluster boots a cluster plus its in-process oracle: the same
// points, options and contiguous partition on both sides.
func equivCluster(t *testing.T, points []mogul.Vector, opts mogul.Options, shards int) (*disttest.Cluster, *mogul.ShardedIndex) {
	t.Helper()
	cl := disttest.NewCluster(t, disttest.ClusterConfig{
		Shards: shards,
		Points: points,
		Build:  opts,
		Client: dist.ClientOptions{Timeout: 10 * time.Second},
	})
	oracle, err := mogul.BuildSharded(points, opts, mogul.ShardOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return cl, oracle
}

// summedDelta is the dynamic state the shard indexes report, summed.
func summedDelta(idxs []*mogul.Index) mogul.DeltaStats {
	var out mogul.DeltaStats
	for _, ix := range idxs {
		d := ix.Delta()
		out.BaseItems += d.BaseItems
		out.DeltaItems += d.DeltaItems
		out.Tombstones += d.Tombstones
	}
	return out
}

func sampleQueries(n, stride int) []int {
	out := []int{}
	for q := 0; q < n; q += stride {
		out = append(out, q)
	}
	return out
}

// recallAt10 is |top10(got) ∩ top10(want)| / 10 averaged over queries.
func recallAt10(t *testing.T, got, want func(q int) []mogul.Result, queries []int) float64 {
	t.Helper()
	total := 0.0
	for _, q := range queries {
		w := want(q)
		g := got(q)
		wantSet := map[int]bool{}
		for _, r := range w {
			wantSet[r.Node] = true
		}
		hit := 0
		for _, r := range g {
			if wantSet[r.Node] {
				hit++
			}
		}
		if len(w) > 0 {
			total += float64(hit) / float64(len(w))
		} else {
			total += 1
		}
	}
	return total / float64(len(queries))
}

// TestCoordinatorBitIdenticalExact: in exact mode every fan-out path —
// in-database, out-of-sample, multi-seed — returns byte-for-byte what
// the in-process ShardedIndex returns, across 2 and 3 shards. A set
// query's bad arguments get the single engine's verdict on every
// Retriever: an empty seed set is refused before k, and k before a seed.
// A refused mutation or Neighbors is refused on every Retriever, and the
// ShardedIndex and a LocalShard coordinator — one shard-set lifecycle —
// refuse it in the same words.
func TestCoordinatorBitIdenticalExact(t *testing.T) {
	ds := mogul.NewMixture(mogul.MixtureConfig{N: 300, Classes: 6, Dim: 8, WithinStd: 0.25, Separation: 3, Seed: 7})
	single, err := mogul.Build(ds.Points, mogul.Options{Seed: 3, Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 3} {
		cl, oracle := equivCluster(t, ds.Points, mogul.Options{Seed: 3, Exact: true}, shards)
		// verdict is a query's error without its package prefix.
		verdict := func(_ []mogul.Result, err error) string {
			if err == nil {
				return "accepted"
			}
			_, msg, _ := strings.Cut(err.Error(), ": ")
			return msg
		}
		for _, args := range []struct {
			seeds []int
			k     int
		}{{[]int{-1}, 0}, {nil, 0}} {
			want := verdict(single.TopKSet(args.seeds, args.k))
			for name, r := range map[string]mogul.Retriever{
				"ShardedIndex":           oracle,
				"LocalShard coordinator": localCoordinator(t, oracle),
				"HTTP coordinator":       cl.Coord,
			} {
				if got := verdict(r.TopKSet(args.seeds, args.k)); got != want {
					t.Fatalf("S=%d %s TopKSet(%v, %d): %q, want the single engine's %q", shards, name, args.seeds, args.k, got, want)
				}
			}
		}
		if got, want := cl.Coord.Len(), oracle.Len(); got != want {
			t.Fatalf("S=%d Len: coordinator %d, oracle %d", shards, got, want)
		}
		if !cl.Coord.Exact() {
			t.Fatalf("S=%d coordinator lost the exact flag", shards)
		}
		for _, q := range sampleQueries(ds.Len(), 29) {
			want, err := oracle.TopK(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cl.Coord.TopK(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("S=%d TopK(%d) differs:\ncoordinator %v\noracle      %v", shards, q, got, want)
			}
		}
		for _, q := range sampleQueries(ds.Len(), 61) {
			qv := slices.Clone(ds.Points[q])
			qv[0] += 0.03
			want, err := oracle.TopKVector(qv, 10)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cl.Coord.TopKVector(qv, 10)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("S=%d TopKVector(%d) differs:\ncoordinator %v\noracle      %v", shards, q, got, want)
			}
		}
		// Seeds straddling shard boundaries exercise the weighted
		// per-shard set splitting.
		seedSets := [][]int{{1, 2, 3}, {0, ds.Len() / 2, ds.Len() - 1}, {5}}
		for _, seeds := range seedSets {
			want, err := oracle.TopKSet(seeds, 10)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cl.Coord.TopKSet(seeds, 10)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("S=%d TopKSet(%v) differs:\ncoordinator %v\noracle      %v", shards, seeds, got, want)
			}
		}

		// The mutation verdicts run last: they tombstone item 5 on the
		// oracle and the cluster, and on a fresh single engine and
		// ShardedIndex twin for the LocalShard coordinator (it would
		// share the oracle's shards).
		fresh, err := mogul.Build(ds.Points, mogul.Options{Seed: 3, Exact: true})
		if err != nil {
			t.Fatal(err)
		}
		twin, err := mogul.BuildSharded(ds.Points, mogul.Options{Seed: 3, Exact: true}, mogul.ShardOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		gone := ds.Len() + 7
		for _, c := range []struct {
			name  string
			setup func(r mogul.Retriever) error
			run   func(r mogul.Retriever) error
		}{
			{"Insert of a wrong-dimension vector", nil, func(r mogul.Retriever) error { _, err := r.Insert(ds.Points[0][:3]); return err }},
			{"Delete of an out-of-range id", nil, func(r mogul.Retriever) error { return r.Delete(gone) }},
			{"Delete of an already-deleted id", func(r mogul.Retriever) error { return r.Delete(5) }, func(r mogul.Retriever) error { return r.Delete(5) }},
			{"Neighbors of an out-of-range id", nil, func(r mogul.Retriever) error { _, _, err := r.Neighbors(gone); return err }},
		} {
			verdicts := map[string]string{}
			for name, r := range map[string]mogul.Retriever{
				"single engine":          fresh,
				"ShardedIndex":           oracle,
				"LocalShard coordinator": localCoordinator(t, twin),
				"HTTP coordinator":       cl.Coord,
			} {
				if c.setup != nil {
					if err := c.setup(r); err != nil {
						t.Fatalf("S=%d %s: setting up %s: %v", shards, name, c.name, err)
					}
				}
				verdicts[name] = verdict(nil, c.run(r))
			}
			for name, v := range verdicts {
				if (v == "accepted") != (verdicts["single engine"] == "accepted") {
					t.Fatalf("S=%d %s: %s %q, the single engine %q", shards, c.name, name, v, verdicts["single engine"])
				}
			}
			if a, b := verdicts["ShardedIndex"], verdicts["LocalShard coordinator"]; a != b || a == "accepted" {
				t.Fatalf("S=%d %s: ShardedIndex %q, LocalShard coordinator %q", shards, c.name, a, b)
			}
		}
	}
}

// TestCoordinatorRecallApproximate: the default approximate mode is
// pinned at recall@10 >= 0.95 against the oracle (it is in fact
// bit-identical too — same shard indexes, same merge — but the
// statistical floor is the contract the ISSUE sets, robust to benign
// float reassociation).
func TestCoordinatorRecallApproximate(t *testing.T) {
	ds := mogul.NewTwoMoons(mogul.TwoMoonsConfig{N: 300, Noise: 0.06, Seed: 5})
	cl, oracle := equivCluster(t, ds.Points, mogul.Options{Seed: 3}, 3)
	queries := sampleQueries(ds.Len(), 17)
	rec := recallAt10(t,
		func(q int) []mogul.Result {
			res, err := cl.Coord.TopK(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			return res
		},
		func(q int) []mogul.Result {
			res, err := oracle.TopK(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			return res
		},
		queries)
	t.Logf("approximate-mode recall@10 vs ShardedIndex oracle: %.3f", rec)
	if rec < 0.95 {
		t.Fatalf("recall@10 %.3f below 0.95", rec)
	}
}

// TestCoordinatorDynamicEquivalence: inserts, base and delta deletes
// and a compaction through the coordinator leave it bit-identical to
// the in-process oracle driven through the same mutations, and the
// delta counts it keeps without asking the shards equal both the
// oracle's and what the shard indexes themselves report, at every
// stage.
func TestCoordinatorDynamicEquivalence(t *testing.T) {
	ds := mogul.NewMixture(mogul.MixtureConfig{N: 240, Classes: 6, Dim: 8, WithinStd: 0.25, Separation: 3, Seed: 9})
	opts := mogul.Options{Seed: 3, Exact: true}
	cl, oracle := equivCluster(t, ds.Points, opts, 3)
	idxs := make([]*mogul.Index, len(cl.Servers))
	for s, srv := range cl.Servers {
		idxs[s] = srv.Index()
	}

	check := func(stage string) {
		t.Helper()
		if got, want := cl.Coord.Len(), oracle.Len(); got != want {
			t.Fatalf("%s: Len %d vs oracle %d", stage, got, want)
		}
		if got, want, shards := cl.Coord.Delta(), oracle.Delta(), summedDelta(idxs); got != want || got != shards {
			t.Fatalf("%s: Delta %+v, oracle %+v, shard indexes sum to %+v", stage, got, want, shards)
		}
		for _, q := range []int{0, 7, 100, 150, 239, 250, 262} {
			want, wantErr := oracle.TopK(q, 10)
			got, gotErr := cl.Coord.TopK(q, 10)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: TopK(%d) error mismatch: coordinator %v, oracle %v", stage, q, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: TopK(%d) differs:\ncoordinator %v\noracle      %v", stage, q, got, want)
			}
		}
	}
	check("at construction")
	extra := mogul.NewMixture(mogul.MixtureConfig{N: 30, Classes: 6, Dim: 8, WithinStd: 0.25, Separation: 3, Seed: 10})
	for i, v := range extra.Points {
		gotID, err := cl.Coord.Insert(v)
		if err != nil {
			t.Fatal(err)
		}
		wantID, err := oracle.Insert(v)
		if err != nil {
			t.Fatal(err)
		}
		if gotID != wantID {
			t.Fatalf("insert %d routed to global id %d, oracle %d", i, gotID, wantID)
		}
	}
	check("after inserts")
	// Four base items and two delta items (ids 240 and up).
	for _, id := range []int{3, 50, 120, 200, 245, 261} {
		if err := cl.Coord.Delete(id); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	check("after base and delta deletes")
	if err := cl.Coord.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := oracle.Compact(); err != nil {
		t.Fatal(err)
	}
	check("after compaction")
	// Deleted ids must stay errors on both sides after renumbering.
	if _, err := cl.Coord.TopK(3, 5); err == nil {
		t.Fatal("deleted id 3 still answers on the coordinator after compaction")
	}
}

// TestCoordinatorOverMutatedShards: a coordinator built over shards
// that already hold tombstones and a delta layer takes its live and
// delta counts from the shards and maps every local id, tombstoned
// slots included, so it answers like a ShardedIndex over the same shard
// states; a partition that leaves a shard's last local ids unmapped is
// refused.
func TestCoordinatorOverMutatedShards(t *testing.T) {
	ds := mogul.NewMixture(mogul.MixtureConfig{N: 240, Classes: 6, Dim: 8, WithinStd: 0.25, Separation: 3, Seed: 9})
	opts := mogul.Options{Seed: 3, Exact: true}
	cl, oracle := equivCluster(t, ds.Points, opts, 3)

	// Mutate the oracle, then replay each mutation straight onto the
	// shard index the oracle routed it to, behind the booted
	// coordinator's back: the shard servers now hold what the oracle's
	// shards hold.
	locate := func(g int) (s, local int) {
		for s, ids := range oracle.Partition() {
			if local := slices.Index(ids, g); local >= 0 {
				return s, local
			}
		}
		t.Fatalf("global id %d is not mapped", g)
		return 0, 0
	}
	extra := mogul.NewMixture(mogul.MixtureConfig{N: 12, Classes: 6, Dim: 8, WithinStd: 0.25, Separation: 3, Seed: 10})
	for _, v := range extra.Points {
		g, err := oracle.Insert(v)
		if err != nil {
			t.Fatal(err)
		}
		s, want := locate(g)
		if local, err := cl.Servers[s].Index().Insert(v); err != nil || local != want {
			t.Fatalf("shard %d insert: local %d, %v; oracle's shard holds it at %d", s, local, err, want)
		}
	}
	for _, g := range []int{5, 90, 170, 241, 247} {
		s, local := locate(g)
		if err := oracle.Delete(g); err != nil {
			t.Fatal(err)
		}
		if err := cl.Servers[s].Index().Delete(local); err != nil {
			t.Fatal(err)
		}
	}

	shards := make([]dist.Shard, len(cl.Clients))
	for s, c := range cl.Clients {
		shards[s] = dist.Shard{Replicas: []dist.Backend{c}}
	}
	partition := oracle.Partition()
	coord, err := dist.NewCoordinator(shards, partition, dist.CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := coord.Len(), oracle.Len(); got != want {
		t.Fatalf("Len %d, oracle %d", got, want)
	}
	if got, want := coord.Delta(), oracle.Delta(); got != want || want.DeltaItems == 0 || want.Tombstones == 0 {
		t.Fatalf("Delta %+v, oracle %+v", got, want)
	}
	last := len(ds.Points) + len(extra.Points) - 1
	for _, q := range []int{0, 100, last} {
		want, err := oracle.TopK(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := coord.TopK(q, 10)
		if err != nil {
			t.Fatalf("TopK(%d): %v", q, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("TopK(%d) differs:\ncoordinator %v\noracle      %v", q, got, want)
		}
	}

	// Sized by the live count, shard 0's table stops short of its id
	// space (the partition drops its highest global ids).
	short := slices.Clone(partition)
	short[0] = short[0][:cl.Servers[0].Index().Len()]
	if _, err := dist.NewCoordinator(shards, short, dist.CoordOptions{}); err == nil || !strings.Contains(err.Error(), "shard 0 id map covers") {
		t.Fatalf("a partition short of shard 0's id space was not refused: %v", err)
	}
}

// TestCoordinatorDegraded: with one shard partitioned away, the
// ctx search surface still answers from the remaining shards and
// reports exactly which shard failed; the strict surface refuses.
func TestCoordinatorDegraded(t *testing.T) {
	ds := mogul.NewMixture(mogul.MixtureConfig{N: 240, Classes: 6, Dim: 8, WithinStd: 0.25, Separation: 3, Seed: 7})
	cl := disttest.NewCluster(t, disttest.ClusterConfig{
		Shards: 3,
		Points: ds.Points,
		Build:  mogul.Options{Seed: 3, Exact: true},
		Client: dist.ClientOptions{Timeout: 2 * time.Second, Retries: 1, Backoff: time.Millisecond},
	})
	cl.Faults[2].Partition()

	// Query owned by shard 0: owner healthy, shard 2 missing from the
	// merge. k is past a shard's 80 items, so the owner's list is short
	// of k and no probe can be gated (TestProbeGateDegraded covers a
	// gated shard that is partitioned).
	const k = 100
	res, deg, err := cl.Coord.TopKCtx(context.Background(), 0, k)
	if err != nil {
		t.Fatalf("degraded TopKCtx failed outright: %v", err)
	}
	if len(res) == 0 {
		t.Fatal("degraded TopKCtx returned no answers")
	}
	if deg.Complete() {
		t.Fatal("Degraded claims complete with shard 2 partitioned")
	}
	if len(deg.Failed) != 1 || deg.Failed[2] == nil {
		t.Fatalf("Degraded.Failed = %v, want exactly shard 2", deg.Failed)
	}
	if !disttest.IsInjected(deg.Failed[2]) {
		t.Fatalf("shard 2 failure lost the injected cause: %v", deg.Failed[2])
	}
	if !slices.Contains(deg.Answered, 0) || !slices.Contains(deg.Answered, 1) {
		t.Fatalf("Degraded.Answered = %v, want shards 0 and 1", deg.Answered)
	}
	if err := deg.Err(); err == nil {
		t.Fatal("Degraded.Err() nil for an incomplete fan-out")
	}

	// Strict surface refuses the same query.
	if _, err := cl.Coord.TopK(0, k); err == nil {
		t.Fatal("strict TopK answered despite a partitioned shard")
	}

	// Query owned by the partitioned shard: even the ctx surface must
	// fail — only the owner knows the query vector.
	ownerQ := cl.Partition[2][0]
	if _, _, err := cl.Coord.TopKCtx(context.Background(), ownerQ, k); err == nil {
		t.Fatal("TopKCtx answered with the owner shard partitioned")
	}

	// Heal and the strict surface recovers.
	cl.Faults[2].Heal()
	if _, err := cl.Coord.TopK(0, k); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}
