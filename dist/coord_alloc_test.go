//go:build !race

package dist_test

import (
	"context"
	"testing"
)

// maxCoordinatorTopKAllocs is the ceiling on a LocalShard coordinator's
// id query at dist_fanout's shape, k = 10: the owner's answer and its
// vector, the merge and the coverage report, and one goroutine per
// probe asked. It read 16 when it was recorded: 18 while each shard
// call derived a cancel context that nothing cancelled (the context and
// its cancel func). The probe gate allocates nothing per query.
const maxCoordinatorTopKAllocs = 16

// TestCoordinatorTopKAllocs pins the allocations of a coordinated id
// query over in-process shards, which is the coordinator's own share of
// dist_fanout's request (the shard servers and net/http add the rest).
// Under the race detector the counts differ, so it does not run there.
func TestCoordinatorTopKAllocs(t *testing.T) {
	six, err := distFanoutShards()
	if err != nil {
		t.Fatal(err)
	}
	coord := localCoordinator(t, six)
	queries := seededIDs(six.Len(), 64, 51)
	ctx := context.Background()
	for _, q := range queries { // warm: sizes every shard's scratch pool
		if _, _, err := coord.TopKCtx(ctx, q, 10); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := coord.TopKCtx(ctx, queries[i%len(queries)], 10); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("%.2f allocs per id query", allocs)
	if allocs > maxCoordinatorTopKAllocs {
		t.Fatalf("Coordinator.TopKCtx allocates %.2f objects/op, want at most %d", allocs, maxCoordinatorTopKAllocs)
	}
}
