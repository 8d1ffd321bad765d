package dist_test

// The probe gate against the fan-out it prunes: probeAllOracle is the
// in-database fan-out as it ran before the gate — every non-owner shard
// probed out-of-sample — and every gated path must answer with its bits.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mogul"
	"mogul/dist"
	"mogul/dist/disttest"
	"mogul/internal/fanout"
	"mogul/serve"
)

// probeAllOracle answers an in-database query over six's shards the
// way the fan-out did before the probe gate: the owner's in-database
// answer plus an out-of-sample probe of every other shard, priced and
// merged by internal/fanout. ids is six's id map (oracleMap).
func probeAllOracle(six *mogul.ShardedIndex, ids *fanout.IDMap, query, k int) ([]mogul.Result, error) {
	shards := six.Shards()
	loc, err := ids.Locate(query)
	if err != nil {
		return nil, err
	}
	var mg fanout.Merge
	mg.Reset(len(shards))
	res, qvec, own, err := shards[loc.Shard].TopKWithVector(loc.Local, k)
	if err != nil {
		return nil, err
	}
	mg.Add(ids, loc.Shard, res, 1)
	for s, sh := range shards {
		if s == loc.Shard {
			continue
		}
		res, aff, err := sh.TopKVectorWithAffinity(qvec, k)
		if err != nil {
			return nil, err
		}
		mg.Probe(s, res, aff)
	}
	mg.AddProbes(ids, own)
	return mg.TopK(k), nil
}

// oracleMap is the id map probeAllOracle reads: six's partition, with
// the global id space sized to its largest id.
func oracleMap(t testing.TB, six *mogul.ShardedIndex) *fanout.IDMap {
	t.Helper()
	partition := six.Partition()
	globals := 0
	for _, members := range partition {
		for _, g := range members {
			globals = max(globals, g+1)
		}
	}
	ids, err := fanout.New(partition, globals, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

// localCoordinator puts a coordinator over six's shards, in process.
func localCoordinator(t testing.TB, six *mogul.ShardedIndex) *dist.Coordinator {
	t.Helper()
	var shards []dist.Shard
	for _, ix := range six.Shards() {
		shards = append(shards, dist.Shard{Replicas: []dist.Backend{dist.LocalShard{Ix: ix}}})
	}
	coord, err := dist.NewCoordinator(shards, six.Partition(), dist.CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

// sameBits reports whether got and want hold the same ids and score
// bits.
func sameBits(got, want []mogul.Result) bool {
	return slices.EqualFunc(got, want, func(a, b mogul.Result) bool {
		return a.Node == b.Node && math.Float64bits(a.Score) == math.Float64bits(b.Score)
	})
}

// gateCheck holds the gated fan-outs to probeAllOracle over six on every
// query at every k, on two workers: six's own ShardedSearcher, and coord,
// a coordinator over shards in the same state as six's (six's own, or
// twins mutated the same way). It returns how many probes coord gated
// and how many it could have asked.
func gateCheck(t *testing.T, label string, six *mogul.ShardedIndex, coord *dist.Coordinator, queries, ks []int) (gated, probes int) {
	t.Helper()
	ids := oracleMap(t, six)
	var (
		nGated atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ss := six.NewSearcher()
			for i := w; i < len(queries) && !failed.Load(); i += workers {
				q := queries[i]
				for _, k := range ks {
					if msg := checkQuery(six, ids, ss, coord, q, k, &nGated); msg != "" {
						failed.Store(true)
						t.Errorf("%s: query %d k=%d: %s", label, q, k, msg)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if failed.Load() {
		t.FailNow()
	}
	return int(nGated.Load()), len(queries) * len(ks) * (six.NumShards() - 1)
}

// checkQuery runs one query through the oracle and both gated paths and
// describes the first difference ("" when there is none).
func checkQuery(six *mogul.ShardedIndex, ids *fanout.IDMap, ss *mogul.ShardedSearcher, coord *dist.Coordinator, q, k int, gated *atomic.Int64) string {
	want, err := probeAllOracle(six, ids, q, k)
	if err != nil {
		return "oracle: " + err.Error()
	}
	got, err := ss.TopK(q, k)
	if err != nil {
		return "in process: " + err.Error()
	}
	if !sameBits(got, want) {
		return fmt.Sprint("in process answered", got, "oracle", want)
	}
	got, deg, err := coord.TopKCtx(context.Background(), q, k)
	if err != nil {
		return "coordinator: " + err.Error()
	}
	if !deg.Complete() || len(deg.Answered)+len(deg.Gated) != six.NumShards() {
		return fmt.Sprint("coordinator coverage", *deg)
	}
	if !sameBits(got, want) {
		return fmt.Sprint("coordinator answered", got, "oracle", want)
	}
	gated.Add(int64(len(deg.Gated)))
	return ""
}

// distFanoutCorpus is the dist_fanout workload's corpus: the d = 8
// mixture, n = 20000 in 2000 classes, generator seed 1.
func distFanoutCorpus() *mogul.Dataset {
	return mogul.NewMixture(mogul.MixtureConfig{N: 20000, Classes: 2000, Dim: 8, WithinStd: 0.25, Separation: 3, Seed: 1})
}

// distFanoutShards is dist_fanout's shard set — its corpus in four
// contiguous shards — built once for the tests that read it.
var distFanoutShards = sync.OnceValues(func() (*mogul.ShardedIndex, error) {
	return mogul.BuildSharded(distFanoutCorpus().Points, mogul.Options{}, mogul.ShardOptions{Shards: 4})
})

// seededIDs draws m distinct ids below n.
func seededIDs(n, m int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)[:m]
}

// smallCorpus is a 3000-point d = 8 mixture of 300 classes.
func smallCorpus() *mogul.Dataset {
	return mogul.NewMixture(mogul.MixtureConfig{N: 3000, Classes: 300, Dim: 8, WithinStd: 0.25, Separation: 3, Seed: 5})
}

// farPoint is a point every shard's base lies far from: its kernel
// weight to any of them underflows to 0.
func farPoint(dim int, at float64) mogul.Vector {
	v := make(mogul.Vector, dim)
	for j := range v {
		v[j] = at
	}
	return v
}

// TestProbeGateBitIdentical holds the gated fan-outs — ShardedSearcher
// and a LocalShard coordinator — to probeAllOracle bit for bit:
//   - on dist_fanout's shard set, 2000 seeded ids at k = 1, 10 and 100;
//     its classes hold ten points each, so at k = 100 every owner's
//     list ends in zeros (a k-th score of 0) and nothing may gate;
//   - on a k-means partition and on F32 shards;
//   - after inserts and deletes, where the coordinator runs over twin
//     shards mutated through it;
//   - on a query owned by an insert placed far from every base, whose
//     owner affinity underflows to 0;
//   - after a Compact folds two such far inserts into two shards' bases:
//     each now places in the other's probe, which a bound kept from
//     before the compaction would gate.
func TestProbeGateBitIdentical(t *testing.T) {
	t.Parallel()
	t.Run("dist_fanout", func(t *testing.T) {
		six, err := distFanoutShards()
		if err != nil {
			t.Fatal(err)
		}
		queries := seededIDs(six.Len(), 2000, 41)
		gated, probes := gateCheck(t, "dist_fanout", six, localCoordinator(t, six), queries, []int{1, 10, 100})
		t.Logf("%d of %d probes gated", gated, probes)
	})
	t.Run("kmeans", func(t *testing.T) {
		ds := smallCorpus()
		six, err := mogul.BuildSharded(ds.Points, mogul.Options{Seed: 2}, mogul.ShardOptions{Shards: 4, Partitioner: mogul.PartitionKMeans})
		if err != nil {
			t.Fatal(err)
		}
		gated, _ := gateCheck(t, "kmeans", six, localCoordinator(t, six), seededIDs(ds.Len(), 300, 42), []int{1, 10})
		if gated == 0 {
			t.Fatal("nothing gated on a k-means partition")
		}
	})
	t.Run("f32", func(t *testing.T) {
		ds := smallCorpus()
		six, err := mogul.BuildSharded(ds.Points, mogul.Options{Precision: mogul.F32}, mogul.ShardOptions{Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		gated, _ := gateCheck(t, "f32", six, localCoordinator(t, six), seededIDs(ds.Len(), 300, 43), []int{1, 10})
		if gated == 0 {
			t.Fatal("nothing gated on F32 shards")
		}
	})
	t.Run("mutations", func(t *testing.T) {
		ds := smallCorpus()
		build := func() *mogul.ShardedIndex {
			six, err := mogul.BuildSharded(ds.Points, mogul.Options{Seed: 4}, mogul.ShardOptions{Shards: 3})
			if err != nil {
				t.Fatal(err)
			}
			return six
		}
		six, twin := build(), build()
		coord := localCoordinator(t, twin)
		insert := func(v mogul.Vector) int {
			g, err := six.Insert(v)
			if err != nil {
				t.Fatal(err)
			}
			if cg, err := coord.Insert(v); err != nil || cg != g {
				t.Fatalf("coordinator inserted %v as %d (%v), ShardedIndex as %d", v, cg, err, g)
			}
			return g
		}
		remove := func(g int) {
			if err := six.Delete(g); err != nil {
				t.Fatal(err)
			}
			if err := coord.Delete(g); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(44))
		var inserted []int
		for i := 0; i < 60; i++ {
			v := slices.Clone(ds.Points[rng.Intn(ds.Len())])
			for j := range v {
				v[j] += rng.NormFloat64() * 0.1
			}
			inserted = append(inserted, insert(v))
		}
		deleted := seededIDs(ds.Len(), 60, 45)
		for _, g := range deleted {
			remove(g)
		}
		// Two far inserts in a row land on two different shards (the
		// coordinator and a contiguous ShardedIndex both route to the
		// least-loaded shard).
		far1 := insert(farPoint(8, 100))
		far2 := insert(farPoint(8, 100.01))
		queries := append(slices.Clone(inserted), far1, far2)
		for _, g := range seededIDs(ds.Len(), 400, 46) {
			if !slices.Contains(deleted, g) {
				queries = append(queries, g)
			}
		}
		gateCheck(t, "mutated", six, coord, queries, []int{1, 10})

		// The far inserts' owners see them through surrogates of their
		// base, all far away: the owner affinity underflows to 0.
		loc := locate(t, six, far2)
		if _, _, own, err := six.Shards()[loc[0]].TopKWithVector(loc[1], 10); err != nil || own != 0 {
			t.Fatalf("owner affinity of the far insert: %v (%v), want an underflow to 0", own, err)
		}
		if err := six.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := coord.Compact(); err != nil {
			t.Fatal(err)
		}
		gateCheck(t, "compacted", six, coord, queries, []int{1, 10})
		// Each far point now answers the other's query from its shard.
		for _, pair := range [][2]int{{far1, far2}, {far2, far1}} {
			res, err := coord.TopK(pair[0], 10)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.ContainsFunc(res, func(r mogul.Result) bool { return r.Node == pair[1] }) {
				t.Fatalf("query %d lacks the compacted far point %d: %v", pair[0], pair[1], res)
			}
		}
	})
}

// locate finds global id g's shard and local id in six's partition.
func locate(t *testing.T, six *mogul.ShardedIndex, g int) [2]int {
	t.Helper()
	for s, members := range six.Partition() {
		if local := slices.Index(members, g); local >= 0 {
			return [2]int{s, local}
		}
	}
	t.Fatalf("global id %d is in no shard", g)
	return [2]int{}
}

// maxProbesPerQueryDistFanout is the gate's ceiling at dist_fanout's
// shape: probes asked per query, k = 10, over 2000 seeded ids. The gate
// reads 0.0355 (the test logs it); the ungated fan-out asks 3.
const maxProbesPerQueryDistFanout = 0.05

// TestProbeGateWorkAtDistFanoutShape pins the probes a coordinated id
// query asks at dist_fanout's shape. The count is deterministic, and
// only this test sees a bound that is merely loose: a gate that skips
// nothing keeps every answer test green.
func TestProbeGateWorkAtDistFanoutShape(t *testing.T) {
	t.Parallel()
	six, err := distFanoutShards()
	if err != nil {
		t.Fatal(err)
	}
	coord := localCoordinator(t, six)
	queries := seededIDs(six.Len(), 2000, 47)
	asked := 0
	for _, q := range queries {
		_, deg, err := coord.TopKCtx(context.Background(), q, 10)
		if err != nil {
			t.Fatal(err)
		}
		asked += len(deg.Answered) - 1
	}
	perQuery := float64(asked) / float64(len(queries))
	t.Logf("%.4f probes per query", perQuery)
	if perQuery > maxProbesPerQueryDistFanout {
		t.Fatalf("%.4f probes per query, want at most %v", perQuery, maxProbesPerQueryDistFanout)
	}
}

// withoutBoundRoute is a shard server as it was before /dist/bound: the
// route answers the mux's 404.
func withoutBoundRoute(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/dist/bound" {
			http.NotFound(w, r)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// TestProbeGateWithoutBoundRoute: a coordinator over shard servers that
// do not serve /dist/bound probes every shard on every query, and
// answers exactly as with the route; a server whose engine derives no
// bound (EMR) answers 404, which a Client reads as no bound.
func TestProbeGateWithoutBoundRoute(t *testing.T) {
	t.Parallel()
	ds := smallCorpus()
	six, err := mogul.BuildSharded(ds.Points, mogul.Options{Seed: 6}, mogul.ShardOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	var shards []dist.Shard
	for _, ix := range six.Shards() {
		srv := dist.NewShardServer(ix, serve.Options{})
		defer srv.Close()
		hs := httptest.NewServer(withoutBoundRoute(srv))
		defer hs.Close()
		cl := dist.NewClient(hs.URL, dist.ClientOptions{Timeout: 10 * time.Second})
		defer cl.CloseIdleConnections()
		if b, err := cl.BoundCtx(context.Background()); b != nil || err != nil {
			t.Fatalf("BoundCtx against a server without the route: %v, %v", b, err)
		}
		shards = append(shards, dist.Shard{Replicas: []dist.Backend{cl}})
	}
	coord, err := dist.NewCoordinator(shards, six.Partition(), dist.CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gated := localCoordinator(t, six)
	ids := oracleMap(t, six)
	for _, q := range seededIDs(ds.Len(), 100, 48) {
		want, err := probeAllOracle(six, ids, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, deg, err := coord.TopKCtx(context.Background(), q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(deg.Answered) != len(shards) || len(deg.Gated) != 0 {
			t.Fatalf("query %d without bounds: coverage %+v, want every shard asked", q, *deg)
		}
		if !sameBits(got, want) {
			t.Fatalf("query %d without bounds answered %v, oracle %v", q, got, want)
		}
		if got, err := gated.TopK(q, 10); err != nil || !sameBits(got, want) {
			t.Fatalf("query %d with bounds answered %v (%v), oracle %v", q, got, err, want)
		}
	}

	emr, err := mogul.BuildEMR(ds.Points, mogul.Options{Seed: 6}, mogul.EMROptions{NumAnchors: 32})
	if err != nil {
		t.Fatal(err)
	}
	srv := dist.NewShardServer(emr, serve.Options{})
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	cl := dist.NewClient(hs.URL, dist.ClientOptions{})
	defer cl.CloseIdleConnections()
	if b, err := cl.BoundCtx(context.Background()); b != nil || err != nil {
		t.Fatalf("BoundCtx against an EMR shard: %v, %v", b, err)
	}
	if b, err := (dist.LocalShard{Ix: emr}).BoundCtx(context.Background()); b != nil || err != nil {
		t.Fatalf("LocalShard.BoundCtx over EMR: %v, %v", b, err)
	}
}

// TestProbeGateDegraded: a shard the gate rules out is reported as
// gated, never as failed — partitioned away, it leaves the fan-out
// complete and the strict surface answering — while a query that must
// ask it still reports it failed.
func TestProbeGateDegraded(t *testing.T) {
	t.Parallel()
	ds := mogul.NewMixture(mogul.MixtureConfig{N: 240, Classes: 6, Dim: 8, WithinStd: 0.25, Separation: 3, Seed: 7})
	cl := disttest.NewCluster(t, disttest.ClusterConfig{
		Shards: 3,
		Points: ds.Points,
		Build:  mogul.Options{Seed: 3},
		Client: dist.ClientOptions{Timeout: 2 * time.Second, Retries: 1, Backoff: time.Millisecond},
	})
	want, deg, err := cl.Coord.TopKCtx(context.Background(), 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(deg.Gated, 2) {
		t.Fatalf("shard 2 not gated for query 0: %+v", *deg)
	}
	cl.Faults[2].Partition()
	got, deg, err := cl.Coord.TopKCtx(context.Background(), 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !deg.Complete() || deg.Failed != nil || !slices.Contains(deg.Gated, 2) || slices.Contains(deg.Answered, 2) {
		t.Fatalf("gated shard 2 partitioned away: coverage %+v, want it gated and the fan-out complete", *deg)
	}
	if !sameBits(got, want) {
		t.Fatalf("answer moved with the gated shard partitioned: %v, want %v", got, want)
	}
	if _, err := cl.Coord.TopK(0, 10); err != nil {
		t.Fatalf("strict TopK refused a complete gated fan-out: %v", err)
	}
	// k past a shard's 80 items: the owner's list is short, nothing gates.
	if _, deg, err := cl.Coord.TopKCtx(context.Background(), 0, 100); err != nil || deg.Complete() || deg.Failed[2] == nil {
		t.Fatalf("ungated query with shard 2 partitioned: %+v (%v), want shard 2 failed", deg, err)
	}
}
