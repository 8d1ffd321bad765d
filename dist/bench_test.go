package dist_test

// Distributed fan-out benchmarks over a loopback cluster: what one
// coordinated TopK costs once HTTP, JSON, and the merge are in the
// path, against the in-process ShardedIndex doing the same fan-out
// without a network, and what a write through serve costs the shards.
// CI's distributed-smoke job runs them as a smoke test; the gated
// measurement of this path is the benchmark module's dist_fanout
// workload.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"mogul"
	"mogul/dist"
	"mogul/dist/disttest"
	"mogul/internal/fanout"
	"mogul/serve"
)

func benchCluster(b *testing.B, shards int) (*disttest.Cluster, *mogul.Dataset) {
	b.Helper()
	ds := mogul.NewMixture(mogul.MixtureConfig{N: 600, Classes: 8, Dim: 12, WithinStd: 0.25, Separation: 3, Seed: 7})
	cl := disttest.NewCluster(b, disttest.ClusterConfig{
		Shards: shards,
		Points: ds.Points,
		Build:  mogul.Options{Seed: 3},
		Client: dist.ClientOptions{Timeout: 10 * time.Second},
	})
	return cl, ds
}

// BenchmarkDistributedTopK times a coordinated id query and reports the
// out-of-sample probes it asked per query — the shards the probe gate
// (fanout.Gated) could not rule out; the ungated fan-out asks S-1.
func BenchmarkDistributedTopK(b *testing.B) {
	cl, ds := benchCluster(b, 3)
	probes := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, deg, err := cl.Coord.TopKCtx(context.Background(), i%ds.Len(), 10)
		if err == nil {
			err = deg.Err()
		}
		if err != nil {
			b.Fatal(err)
		}
		probes += len(deg.Answered) - 1
	}
	b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
}

func BenchmarkDistributedTopKVector(b *testing.B) {
	cl, ds := benchCluster(b, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Coord.TopKVector(ds.Points[i%ds.Len()], 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistributedVsInProcess pairs the coordinator with the
// in-process oracle on identical data, so one bench run shows the
// network tax directly.
func BenchmarkDistributedVsInProcess(b *testing.B) {
	ds := mogul.NewMixture(mogul.MixtureConfig{N: 600, Classes: 8, Dim: 12, WithinStd: 0.25, Separation: 3, Seed: 7})
	b.Run("coordinator", func(b *testing.B) {
		cl := disttest.NewCluster(b, disttest.ClusterConfig{
			Shards: 3,
			Points: ds.Points,
			Build:  mogul.Options{Seed: 3},
			Client: dist.ClientOptions{Timeout: 10 * time.Second},
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cl.Coord.TopK(i%ds.Len(), 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("in-process", func(b *testing.B) {
		six, err := mogul.BuildSharded(ds.Points, mogul.Options{Seed: 3}, mogul.ShardOptions{Shards: 3})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := six.TopK(i%ds.Len(), 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDistributedWrite runs insert + delete-own pairs through
// serve over the 3-shard loopback cluster and reports the shard
// requests each pair costs, read from the shard servers' /stats: a
// count, so no noise on the host can blur it. One insert and one
// delete is the floor.
func BenchmarkDistributedWrite(b *testing.B) {
	cl, ds := benchCluster(b, 3)
	srv := serve.New(cl.Coord, serve.Options{})
	defer srv.Close()
	before := shardRequests(b, cl)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ins serve.InsertReply
		postJSON(b, srv, "/insert", vectorBody(ds.Points[i%ds.Len()]), &ins)
		postJSON(b, srv, "/delete", fmt.Sprintf(`{"id":%d}`, ins.ID), nil)
	}
	b.StopTimer()
	total := 0
	for _, n := range sinceStats(before, shardRequests(b, cl)) {
		total += n
	}
	b.ReportMetric(float64(total)/float64(b.N), "shard-requests/op")
}

// BenchmarkGate times one probe-gate decision over dist_fanout's shard
// set, k = 10: sweep is AffinityBound over every ball and the rule,
// tree is fanout.Gated, which asks the gate's k-d tree whether any ball
// comes within the rule's threshold. nodes/op is the balls the sweep
// measures, and the box and ball tests the tree makes (Gate.Work).
func BenchmarkGate(b *testing.B) {
	six, err := distFanoutShards()
	if err != nil {
		b.Fatal(err)
	}
	shards := six.Shards()
	ids := oracleMap(b, six)
	bounds := make([]*mogul.ProbeBound, len(shards))
	gates := make([]*fanout.Gate, len(shards))
	for s, sh := range shards {
		bounds[s] = sh.ProbeBound()
		gates[s] = fanout.NewGate(bounds[s])
	}
	type call struct {
		s        int
		q        []float64
		own, kth float64
	}
	var (
		calls []call
		mg    fanout.Merge
	)
	for _, query := range seededIDs(six.Len(), 512, 52) {
		loc, err := ids.Locate(query)
		if err != nil {
			b.Fatal(err)
		}
		res, qvec, own, err := shards[loc.Shard].TopKWithVector(loc.Local, 10)
		if err != nil {
			b.Fatal(err)
		}
		mg.Reset(len(shards))
		mg.Add(ids, loc.Shard, res, 1)
		for s := range shards {
			if s != loc.Shard {
				calls = append(calls, call{s, qvec, own, mg.Kth(loc.Shard, 10)})
			}
		}
	}
	b.Run("sweep", func(b *testing.B) {
		b.ReportAllocs()
		nodes := 0
		for i := 0; i < b.N; i++ {
			c := calls[i%len(calls)]
			gatedSweep(bounds[c.s], c.q, c.own, c.kth)
			nodes += len(bounds[c.s].Radii)
		}
		b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
	})
	b.Run("tree", func(b *testing.B) {
		b.ReportAllocs()
		nodes := 0
		for i := 0; i < b.N; i++ {
			c := calls[i%len(calls)]
			_, n := gates[c.s].Work(c.q, c.own, c.kth)
			nodes += n
		}
		b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
	})
}
