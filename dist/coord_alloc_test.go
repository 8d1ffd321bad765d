//go:build !race

package dist_test

import (
	"context"
	"testing"

	"mogul"
	"mogul/dist"
)

// maxCoordinatorTopKAllocs is the ceiling on a LocalShard coordinator's
// id query at dist_fanout's shape, k = 10: the owner's answer and its
// vector, the merge and the coverage report, and one goroutine per
// probe asked. It read 16 when it was recorded: 18 while each shard
// call derived a cancel context that nothing cancelled (the context and
// its cancel func). The probe gate allocates nothing per query.
const maxCoordinatorTopKAllocs = 16

// maxCoordinatorTopKVectorAllocs and maxCoordinatorTopKSetAllocs are the
// ceilings on the same coordinator's vector query, which probes all
// four shards, and set query, whose two seeds lie on two shards. They
// read 31 and 25 when they were recorded, before the three query flows
// were written once in internal/fanout; 29 and 23 since.
const (
	maxCoordinatorTopKVectorAllocs = 31
	maxCoordinatorTopKSetAllocs    = 25
)

// TestCoordinatorTopKAllocs pins the allocations of a coordinated id
// query over in-process shards, which is the coordinator's own share of
// dist_fanout's request (the shard servers and net/http add the rest),
// and of a vector and a set query over the same shards. Under the race
// detector the counts differ, so it does not run there.
func TestCoordinatorTopKAllocs(t *testing.T) {
	six, err := distFanoutShards()
	if err != nil {
		t.Fatal(err)
	}
	coord := localCoordinator(t, six)
	queries := seededIDs(six.Len(), 64, 51)
	points := distFanoutCorpus().Points
	sets := make([][]int, len(queries))
	for i, q := range queries { // a quarter of the ids apart: on two of the four shards
		sets[i] = []int{q, (q + six.Len()/4) % six.Len()}
	}
	ctx := context.Background()
	for _, c := range []struct {
		name  string
		max   int
		query func(i int) ([]mogul.Result, *dist.Degraded, error)
	}{
		{"TopKCtx", maxCoordinatorTopKAllocs, func(i int) ([]mogul.Result, *dist.Degraded, error) {
			return coord.TopKCtx(ctx, queries[i], 10)
		}},
		{"TopKVectorCtx", maxCoordinatorTopKVectorAllocs, func(i int) ([]mogul.Result, *dist.Degraded, error) {
			return coord.TopKVectorCtx(ctx, points[queries[i]], 10)
		}},
		{"TopKSetCtx", maxCoordinatorTopKSetAllocs, func(i int) ([]mogul.Result, *dist.Degraded, error) {
			return coord.TopKSetCtx(ctx, sets[i], 10)
		}},
	} {
		for i := range queries { // warm: sizes every shard's scratch pool
			if _, _, err := c.query(i); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			if _, _, err := c.query(i % len(queries)); err != nil {
				t.Fatal(err)
			}
			i++
		})
		t.Logf("%s: %.2f allocs per query", c.name, allocs)
		if allocs > float64(c.max) {
			t.Fatalf("Coordinator.%s allocates %.2f objects/op, want at most %d", c.name, allocs, c.max)
		}
	}
}
