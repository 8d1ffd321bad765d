// Package dist splits a sharded Mogul deployment across processes
// behind the same mogul.Retriever surface the in-process ShardedIndex
// serves. Three pieces compose (see docs/DISTRIBUTED.md):
//
//   - ShardServer is one shard's *mogul.Index behind the full serve
//     HTTP layer (search, mutations, caching, metrics) with the /dist/*
//     routes added to the same route table: owner search (answers +
//     query vector + affinity in one round trip), vector search with
//     affinity, weighted set search, info and the liveness map — each
//     the wire form of one Backend method — plus the replication log
//     (/dist/log), truncation and snapshots.
//
//   - Client speaks to one ShardServer: the Backend surface a
//     Coordinator fans out to, from the other side of that wire, plus
//     the replication calls. Connections are reused through one
//     transport, every request carries a per-request timeout, and
//     idempotent reads retry with bounded exponential backoff;
//     mutations are never retried.
//
//   - Coordinator serves one global id space over a set of shards —
//     each local (an index in this process) or remote (a Client) —
//     through the same internal/fanout policy (id map, scoring and
//     merge model, routing, compaction renumbering) the in-process
//     ShardedIndex runs, so on the same contiguous partition its
//     exact-mode rankings are bit-identical to the ShardedIndex
//     oracle (dist/equivalence_test.go pins this). Context-taking search
//     variants tolerate shard failures and report degraded coverage;
//     the strict Retriever surface fails instead.
//
// Replication: a follower tails the primary's Insert/Delete/Compact
// delta log (mogul.LogEntry) keyed by the Version() cursor — see
// Replicator. Because the whole build pipeline is deterministic,
// replay converges the follower to a bit-identical index; the
// convergence property is tested over random mutation interleavings
// in dist/replication_test.go.
package dist

import (
	"mogul"
	"mogul/internal/fanout"
)

// BuildShardIndexes partitions points into s contiguous shards and
// builds one independent index per shard: the shards and partition of
// mogul.BuildSharded(points, opts, ShardOptions{Shards: s}) — shard i
// holds the points with global ids in [i*n/s, (i+1)*n/s), per-shard
// auto-compaction is disabled (the coordinator owns compaction), and
// one heat-kernel bandwidth is pinned across all shards. A Coordinator
// over the returned indexes therefore serves bit-identical exact-mode
// rankings to the in-process ShardedIndex on the same partition.
//
// The returned partition lists each shard's global ids in local-id
// order; pass it to NewCoordinator.
func BuildShardIndexes(points []mogul.Vector, opts mogul.Options, s int) ([]*mogul.Index, [][]int, error) {
	six, err := mogul.BuildSharded(points, opts, mogul.ShardOptions{Shards: s})
	if err != nil {
		return nil, nil, err
	}
	return six.Shards(), six.Partition(), nil
}

// ContiguousPartition returns the contiguous s-way split of n global
// ids BuildSharded's PartitionContiguous derives: shard i holds ids
// [i*n/s, (i+1)*n/s) in order.
func ContiguousPartition(n, s int) [][]int { return fanout.ContiguousPartition(n, s) }
