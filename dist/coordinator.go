package dist

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"mogul"
	"mogul/internal/fanout"
)

// Backend is one shard as the coordinator sees it: the context-taking
// fan-out surface a *Client serves remotely and a LocalShard serves
// in-process. All ids are shard-local; the coordinator owns the
// global id space.
type Backend interface {
	// OwnerSearch runs the in-database half of a distributed TopK on
	// the shard owning the query: the shard-local ranking plus the
	// query item's stored vector and this shard's affinity to it.
	OwnerSearch(ctx context.Context, local, k int) ([]mogul.Result, mogul.Vector, float64, error)
	// VectorSearch probes the shard out-of-sample, returning the local
	// ranking and the shard's raw kernel affinity to the query.
	VectorSearch(ctx context.Context, q mogul.Vector, k int) ([]mogul.Result, float64, error)
	// SetSearch runs a multi-seed search over shard-local seeds, each
	// carrying the given global query weight.
	SetSearch(ctx context.Context, locals []int, weight float64, k int) ([]mogul.Result, error)
	// NeighborsCtx returns a local item's graph context.
	NeighborsCtx(ctx context.Context, local int) ([]int, []float64, error)
	// InsertCtx adds a point to the shard and returns its local id.
	InsertCtx(ctx context.Context, v mogul.Vector) (int, error)
	// DeleteCtx tombstones a local id.
	DeleteCtx(ctx context.Context, local int) error
	// AliveMap snapshots the shard's id space and dead local ids.
	AliveMap(ctx context.Context) (space int, dead []int, err error)
	// CompactCtx folds the shard's delta layer into a fresh base.
	CompactCtx(ctx context.Context) error
	// InfoCtx reports the shard's state snapshot.
	InfoCtx(ctx context.Context) (Info, error)
	// BoundCtx reports the shard's probe bound (fanout.Gated), or nil
	// when its engine derives none.
	BoundCtx(ctx context.Context) (*mogul.ProbeBound, error)
}

var (
	_ Backend = (*Client)(nil)
	_ Backend = LocalShard{}
)

// ShardIndex is the in-process engine surface the distributed layer is
// written against — what a LocalShard adapts, a ShardServer serves and a
// Replicator follows: the mogul.Retriever contract plus the
// vector/affinity/weighted-set entry points the fan-out protocol needs,
// the id-space metadata the coordinator tracks, and the replication
// log. All three single-node engines satisfy it (they share one
// lifecycle), so a shard is a graph, an anchor-graph or a spectral
// engine behind one field.
type ShardIndex interface {
	mogul.Retriever
	TopKWithVector(query, k int) ([]mogul.Result, mogul.Vector, float64, error)
	TopKVectorWithAffinity(q mogul.Vector, k int) ([]mogul.Result, float64, error)
	TopKSetWeighted(seeds []int, weight float64, k int) ([]mogul.Result, error)
	IDSpace() int
	Alive(id int) bool
	DeadIDs() (space int, dead []int)
	EntriesSince(since uint64) ([]mogul.LogEntry, bool)
	TruncateEntries(upTo uint64)
	LogLen() int
}

var (
	_ ShardIndex = (*mogul.Index)(nil)
	_ ShardIndex = (*mogul.EMRIndex)(nil)
	_ ShardIndex = (*mogul.SpectralIndex)(nil)
)

// LocalShard adapts an in-process engine (flat *mogul.Index,
// anchor-graph *mogul.EMRIndex, or truncated-eigenbasis
// *mogul.SpectralIndex) to the Backend surface, so a
// coordinator can serve mixed local + remote shard sets (e.g. one
// resident shard plus N remote ones) through one code path. Context
// cancellation is checked at call entry; the underlying searches are
// not interruptible mid-flight.
type LocalShard struct {
	Ix ShardIndex
}

func (l LocalShard) OwnerSearch(ctx context.Context, local, k int) ([]mogul.Result, mogul.Vector, float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, 0, err
	}
	return l.Ix.TopKWithVector(local, k)
}

func (l LocalShard) VectorSearch(ctx context.Context, q mogul.Vector, k int) ([]mogul.Result, float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	return l.Ix.TopKVectorWithAffinity(q, k)
}

func (l LocalShard) SetSearch(ctx context.Context, locals []int, weight float64, k int) ([]mogul.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return l.Ix.TopKSetWeighted(locals, weight, k)
}

func (l LocalShard) NeighborsCtx(ctx context.Context, local int) ([]int, []float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return l.Ix.Neighbors(local)
}

func (l LocalShard) InsertCtx(ctx context.Context, v mogul.Vector) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return l.Ix.Insert(v)
}

func (l LocalShard) DeleteCtx(ctx context.Context, local int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return l.Ix.Delete(local)
}

func (l LocalShard) AliveMap(ctx context.Context) (int, []int, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	space, dead := l.Ix.DeadIDs() // never nil: an all-live shard is "dead":[] on the wire
	return space, dead, nil
}

func (l LocalShard) CompactCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return l.Ix.Compact()
}

// BoundCtx returns the probe bound of a graph engine's current base;
// the EMR and spectral engines derive none.
func (l LocalShard) BoundCtx(ctx context.Context) (*mogul.ProbeBound, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if ix, ok := l.Ix.(interface{ ProbeBound() *mogul.ProbeBound }); ok {
		return ix.ProbeBound(), nil
	}
	return nil, nil
}

func (l LocalShard) InfoCtx(ctx context.Context) (Info, error) {
	if err := ctx.Err(); err != nil {
		return Info{}, err
	}
	return Info{
		Items:   l.Ix.Len(),
		Version: l.Ix.Version(),
		Exact:   l.Ix.Exact(),
		IDSpace: l.Ix.IDSpace(),
		LogLen:  l.Ix.LogLen(),
		Stats:   l.Ix.Stats(),
		Delta:   l.Ix.Delta(),
	}, nil
}

// Shard is one logical shard: a primary plus optional read replicas
// (followers kept converged by a Replicator). Reads prefer the
// primary and hedge to replicas (CoordOptions.HedgeDelay) or fail
// over to them sequentially; mutations only ever go to the primary.
type Shard struct {
	Replicas []Backend
}

// Primary returns the mutation target (Replicas[0]).
func (sh Shard) Primary() Backend { return sh.Replicas[0] }

// CoordOptions tunes the coordinator's fan-out behaviour.
type CoordOptions struct {
	// ShardTimeout bounds each per-shard call; 0 means no per-shard
	// deadline beyond the caller's context.
	ShardTimeout time.Duration
	// HedgeDelay, when a shard has replicas, launches the next replica
	// this long after the previous one went out without answering —
	// the classic tail-latency hedge. 0 disables hedging: replicas are
	// then pure failover targets, tried in order on error.
	HedgeDelay time.Duration
}

// Coordinator serves one global id space over a set of shards. The
// fan-out policy — id map, scoring and merge model, insert routing,
// compaction renumbering — is internal/fanout's, shared with the
// in-process ShardedIndex (docs/SHARDING.md, "Scoring model"), so on
// the same contiguous partition the exact-mode rankings are
// bit-identical to it. This type adds what is genuinely distributed:
// each per-shard call is a hedged goroutine over the shard's replicas
// under ShardTimeout.
//
// The context-taking search variants (TopKCtx, TopKVectorCtx,
// TopKSetCtx) tolerate non-essential shard failures under per-shard
// deadlines and report which shards answered via Degraded; the strict
// mogul.Retriever surface fails the query instead. Mutations route to
// the owning shard's primary and are never hedged or retried.
//
// The coordinator must be the only mutator of its shards: routing a
// mutation around it (straight to a shard server) desynchronizes the
// global id map. See docs/DISTRIBUTED.md, "Ownership".
type Coordinator struct {
	shards []Shard
	opts   CoordOptions

	// set is the shard-set lifecycle over the global id space, with its
	// locks, per-shard delta counts (the coordinator is the sole
	// mutator, so routing an insert, Len, Delta and skipping a shard
	// with nothing to compact cost no round trip) and mutation version.
	// It asks the shards through members.
	set *fanout.Set
}

// NewCoordinator builds a coordinator over shards, where partition
// lists each shard's global ids in shard-local order (as returned by
// BuildShardIndexes, or ContiguousPartition for a freshly built
// contiguous split). The shard states must match the partition — each
// shard's index holds exactly the listed items, tombstoned ones
// included, in that local order. Every shard primary is asked for its
// state once: a partition that does not cover a shard's id space is
// refused, and the shards' delta counts seed the ones the coordinator
// keeps from here on.
func NewCoordinator(shards []Shard, partition [][]int, opts CoordOptions) (*Coordinator, error) {
	if len(shards) == 0 || len(shards) != len(partition) {
		return nil, fmt.Errorf("dist: %d shards with %d partition groups", len(shards), len(partition))
	}
	total := 0
	shapes := make([]fanout.Shape, len(shards))
	for s, members := range partition {
		if len(shards[s].Replicas) == 0 {
			return nil, fmt.Errorf("dist: shard %d has no replicas", s)
		}
		total += len(members)
		info, err := shards[s].Primary().InfoCtx(context.Background())
		if err != nil {
			return nil, fmt.Errorf("dist: probing shard %d: %w", s, err)
		}
		shapes[s] = fanout.Shape{Space: info.IDSpace, Live: info.Items, Delta: info.Delta, Exact: info.Exact}
	}
	c := &Coordinator{shards: shards, opts: opts}
	set, err := fanout.NewSet("dist", c.members(context.Background()), partition, total, shapes, nil, 0)
	if err != nil {
		return nil, err
	}
	c.set = set
	return c, nil
}

// NumShards returns the shard count.
func (c *Coordinator) NumShards() int { return len(c.shards) }

// Degraded reports a fan-out's coverage: which shards contributed to
// the merged ranking and which failed (timeout, partition, error).
// A complete fan-out has no failures.
type Degraded struct {
	// Answered lists the shards whose candidates entered the merge.
	Answered []int
	// Failed maps each non-answering shard to its failure. It is nil
	// when every shard asked answered.
	Failed map[int]error
	// Gated lists the shards an in-database query did not ask because
	// their probe bound proves no answer of theirs could place
	// (fanout.Gated): the merge is what asking them would have made it,
	// so a gated shard is neither answered nor failed.
	Gated []int
}

// Complete reports whether every shard answered.
func (d *Degraded) Complete() bool { return len(d.Failed) == 0 }

// Err returns nil for a complete fan-out and an error naming the
// failed shards otherwise — the strict Retriever surface's contract.
func (d *Degraded) Err() error {
	if d == nil || len(d.Failed) == 0 {
		return nil
	}
	ids := make([]int, 0, len(d.Failed))
	for s := range d.Failed {
		ids = append(ids, s)
	}
	sort.Ints(ids)
	return fmt.Errorf("dist: %d of %d shards failed (first: shard %d: %v)",
		len(d.Failed), len(d.Failed)+len(d.Answered)+len(d.Gated), ids[0], d.Failed[ids[0]])
}

// shardCtx derives the per-shard deadline context. Without a
// ShardTimeout there is no deadline to derive, and the caller's context
// comes back with a no-op cancel: a cancel context that nothing cancels
// cost every shard call two allocations (the context and its cancel
// func). A hedged call still derives its own (hedge's hctx), which it
// does cancel.
func (c *Coordinator) shardCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.opts.ShardTimeout > 0 {
		return context.WithTimeout(ctx, c.opts.ShardTimeout)
	}
	return ctx, func() {}
}

// hedge runs call against a shard's replicas: the primary first, the
// next replica HedgeDelay later (or immediately once the previous
// attempt failed), first success wins. With hedging disabled the
// replicas are sequential failover targets. The per-shard timeout
// spans the whole attempt sequence — it is the shard's answer
// deadline, not a per-replica one.
func hedge[T any](ctx context.Context, replicas []Backend, delay time.Duration, call func(context.Context, Backend) (T, error)) (T, error) {
	var zero T
	if len(replicas) == 1 || delay <= 0 {
		var lastErr error
		for _, b := range replicas {
			if err := ctx.Err(); err != nil {
				if lastErr == nil {
					lastErr = err
				}
				break
			}
			v, err := call(ctx, b)
			if err == nil {
				return v, nil
			}
			lastErr = err
		}
		return zero, lastErr
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, len(replicas))
	launched := 0
	launch := func() {
		b := replicas[launched]
		launched++
		go func() {
			v, err := call(hctx, b)
			ch <- outcome{v, err}
		}()
	}
	launch()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	pending := 1
	var lastErr error
	for {
		select {
		case o := <-ch:
			pending--
			if o.err == nil {
				return o.v, nil
			}
			lastErr = o.err
			switch {
			case launched < len(replicas):
				launch()
				pending++
			case pending == 0:
				return zero, lastErr
			}
		case <-timer.C:
			if launched < len(replicas) {
				launch()
				pending++
				timer.Reset(delay)
			}
		case <-ctx.Done():
			// Outstanding attempts unwind through hctx; the buffered
			// channel absorbs their results, so nothing leaks.
			return zero, ctx.Err()
		}
	}
}

// ask runs one read against shard s the way every coordinator read is
// dispatched: hedged over the shard's replicas under the per-shard
// deadline.
func ask[T any](ctx context.Context, c *Coordinator, s int, call func(context.Context, Backend) (T, error)) (T, error) {
	sctx, cancel := c.shardCtx(ctx)
	defer cancel()
	return hedge(sctx, c.shards[s].Replicas, c.opts.HedgeDelay, call)
}

// query is one coordinator search as fanout's flows drive it: shards
// are asked in parallel, each hedged under the per-shard deadline, and a
// shard that fails is recorded in deg instead of failing the query,
// unless it is an id query's owner (it alone knows the query's vector
// and affinity baseline).
type query struct {
	c     *Coordinator
	ctx   context.Context
	deg   Degraded
	owner int // the id query's owner shard; -1 until it answers
	flow  fanout.Flow
}

// answer is one shard's answer: its local ranking, and the shard's
// kernel affinity to the query and an owner's stored query vector.
type answer struct {
	res  []mogul.Result
	qvec mogul.Vector
	aff  float64
}

func (c *Coordinator) newQuery(ctx context.Context) *query {
	return &query{c: c, ctx: ctx, owner: -1, deg: Degraded{Answered: make([]int, 0, len(c.shards))}}
}

// done is the query's answer, with its coverage when it has one.
func (q *query) done(res []mogul.Result, err error) ([]mogul.Result, *Degraded, error) {
	if err != nil {
		return nil, nil, err
	}
	return res, &q.deg, nil
}

func (q *query) Unanswered(what string) error {
	if err := q.ctx.Err(); err != nil {
		return err
	}
	return fmt.Errorf("dist: no %s answered: %w", what, q.deg.Err())
}

func (q *query) Owner(_ int, loc fanout.Loc, k int) ([]mogul.Result, mogul.Vector, float64, error) {
	own, err := ask(q.ctx, q.c, loc.Shard, func(ctx context.Context, b Backend) (a answer, err error) {
		a.res, a.qvec, a.aff, err = b.OwnerSearch(ctx, loc.Local, k)
		return a, err
	})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("dist: owner shard %d: %w", loc.Shard, err)
	}
	q.owner = loc.Shard
	q.deg.Answered = append(q.deg.Answered, loc.Shard)
	return own.res, own.qvec, own.aff, nil
}

// Probe reports every shard the flow does not ask but the owner as
// gated.
func (q *query) Probe(v mogul.Vector, k int, ask []bool, mg *fanout.Merge) error {
	for s, a := range ask {
		if !a && s != q.owner {
			if q.deg.Gated == nil {
				q.deg.Gated = make([]int, 0, len(ask)-1)
			}
			q.deg.Gated = append(q.deg.Gated, s)
		}
	}
	q.askAll(mg, func(s int) bool { return ask == nil || ask[s] }, func(ctx context.Context, b Backend, _ int) (a answer, err error) {
		a.res, a.aff, err = b.VectorSearch(ctx, v, k)
		return a, err
	})
	return nil
}

func (q *query) Seeds(groups [][]int, weight float64, k int, mg *fanout.Merge) error {
	q.askAll(mg, func(s int) bool { return len(groups[s]) > 0 }, func(ctx context.Context, b Backend, s int) (a answer, err error) {
		a.res, err = b.SetSearch(ctx, groups[s], weight, k)
		return a, err
	})
	return nil
}

// askAll asks every shard want selects, in parallel, and stages each
// answer in mg, one at a time, in arrival order; a shard that fails is
// recorded in deg and dropped.
func (q *query) askAll(mg *fanout.Merge, want func(s int) bool, call func(ctx context.Context, b Backend, s int) (answer, error)) {
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	for s := range q.c.shards {
		if !want(s) {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			a, err := ask(q.ctx, q.c, s, func(ctx context.Context, b Backend) (answer, error) { return call(ctx, b, s) })
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if q.deg.Failed == nil {
					q.deg.Failed = map[int]error{}
				}
				q.deg.Failed[s] = err
				return
			}
			q.deg.Answered = append(q.deg.Answered, s)
			mg.Probe(s, a.res, a.aff)
		}(s)
	}
	wg.Wait()
}

// TopKCtx fans an in-database query out to all shards and merges
// (fanout.Flow.TopK): the owner shard answers in-database and its
// failure fails the query; every other shard whose probe bound does not
// rule it out (fanout.Gated; reported in Degraded.Gated) is probed
// out-of-sample under the per-shard deadline, and shards that fail are
// dropped from the merge and reported in Degraded.
func (c *Coordinator) TopKCtx(ctx context.Context, item, k int) ([]mogul.Result, *Degraded, error) {
	q := c.newQuery(ctx)
	return q.done(q.flow.TopK(c.set, q, item, k))
}

// TopKVectorCtx fans an out-of-sample query to every shard, prices each
// answer against the best answering shard and merges. Failed shards
// degrade coverage; a query where no shard answered is an error.
func (c *Coordinator) TopKVectorCtx(ctx context.Context, v mogul.Vector, k int) ([]mogul.Result, *Degraded, error) {
	q := c.newQuery(ctx)
	return q.done(q.flow.TopKVector(c.set, q, v, k))
}

// TopKSetCtx fans a multi-seed query out: each shard searches the
// seeds it owns at the global weight 1/len(seeds). A failed
// seed-owning shard degrades the result (that part of the query mass
// is missing — reported, not silently absorbed); if every seed-owning
// shard failed, the query errors.
func (c *Coordinator) TopKSetCtx(ctx context.Context, seeds []int, k int) ([]mogul.Result, *Degraded, error) {
	q := c.newQuery(ctx)
	return q.done(q.flow.TopKSet(c.set, q, seeds, k))
}

// --- mutations (primary-only, never hedged or retried) ---

// InsertCtx routes one insert to the least-loaded shard's primary and
// returns the new global id.
func (c *Coordinator) InsertCtx(ctx context.Context, v mogul.Vector) (int, error) {
	return c.set.Insert(c.members(ctx), v)
}

// DeleteCtx tombstones one global id on its owning shard's primary.
func (c *Coordinator) DeleteCtx(ctx context.Context, id int) error {
	return c.set.Delete(c.members(ctx), id)
}

// CompactCtx folds every shard's delta in, preserving global ids
// (fanout.IDMap.CompactShard, stretched over the network): the fan-out
// write lock is held across each tombstoned shard's rebuild so no
// search pairs new shard state with the old map, and a compacted
// shard's probe bound is asked for again.
func (c *Coordinator) CompactCtx(ctx context.Context) error { return c.set.Compact(c.members(ctx)) }

// members is the coordinator's shard set as its lifecycle asks it
// under one caller context.
func (c *Coordinator) members(ctx context.Context) fanout.Members {
	return func(s int) fanout.Member { return member{c, ctx, s} }
}

// member is shard s as the lifecycle asks it: mutations, liveness and
// the probe bound go to its primary, Neighbors and Stats are reads
// (ask), and every call but the rebuild runs under the per-shard
// deadline; the rebuild runs under the caller's context alone.
type member struct {
	c   *Coordinator
	ctx context.Context
	s   int
}

// primary is the shard's primary under the per-shard deadline; pair
// with cancel.
func (m member) primary() (Backend, context.Context, context.CancelFunc) {
	ctx, cancel := m.c.shardCtx(m.ctx)
	return m.c.shards[m.s].Primary(), ctx, cancel
}

func (m member) Insert(v mogul.Vector) (int, error) {
	b, ctx, cancel := m.primary()
	defer cancel()
	return b.InsertCtx(ctx, v)
}

func (m member) Delete(local int) error {
	b, ctx, cancel := m.primary()
	defer cancel()
	return b.DeleteCtx(ctx, local)
}

func (m member) Liveness() (int, []int, error) {
	b, ctx, cancel := m.primary()
	defer cancel()
	return b.AliveMap(ctx)
}

func (m member) Bound() (*mogul.ProbeBound, error) {
	b, ctx, cancel := m.primary()
	defer cancel()
	return b.BoundCtx(ctx)
}

func (m member) Compact() error { return m.c.shards[m.s].Primary().CompactCtx(m.ctx) }

func (m member) Neighbors(local int) ([]int, []float64, error) {
	type nOut struct {
		ids []int
		wts []float64
	}
	n, err := ask(m.ctx, m.c, m.s, func(ctx context.Context, b Backend) (nOut, error) {
		ids, wts, err := b.NeighborsCtx(ctx, local)
		return nOut{ids, wts}, err
	})
	return n.ids, n.wts, err
}

// Stats is zero when no replica answers in time, which adds nothing to
// the set's sums (fanout.Member).
func (m member) Stats() mogul.Stats {
	info, _ := ask(m.ctx, m.c, m.s, func(ctx context.Context, b Backend) (Info, error) { return b.InfoCtx(ctx) })
	return info.Stats
}

// --- the strict mogul.Retriever surface ---

var _ mogul.Retriever = (*Coordinator)(nil)

// Len returns the live item count across all shards (tracked locally;
// the coordinator is the sole mutator).
func (c *Coordinator) Len() int { return c.set.Len() }

// Exact reports the shard set's scoring mode (captured at
// construction; every shard is built with the same options).
func (c *Coordinator) Exact() bool { return c.set.Exact() }

// Version returns the coordinator's monotonic mutation version —
// bumped once per completed coordinator mutation, the stamp a serving
// layer's result cache keys on. Mutations routed around the
// coordinator are invisible to it (see the Ownership contract).
func (c *Coordinator) Version() uint64 { return c.set.Version() }

// Stats aggregates construction statistics across the shards that
// answer (modularity node-weighted), each asked as every read is:
// hedged over its replicas under the per-shard deadline.
func (c *Coordinator) Stats() mogul.Stats { return c.set.Stats(c.members(context.Background())) }

// Delta aggregates the dynamic state across shards from the id map,
// which every coordinator mutation updates (tracked locally, like Len:
// the coordinator is the sole mutator).
func (c *Coordinator) Delta() mogul.DeltaStats { return c.set.Delta() }

// strict turns a degraded-tolerant answer into the Retriever
// contract: every asked shard must have answered.
func strict(res []mogul.Result, deg *Degraded, err error) ([]mogul.Result, error) {
	if err == nil {
		err = deg.Err()
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// TopK is TopKCtx requiring every shard to answer.
func (c *Coordinator) TopK(query, k int) ([]mogul.Result, error) {
	return strict(c.TopKCtx(context.Background(), query, k))
}

// TopKWithInfo is TopK; the distributed fan-out does not aggregate
// per-shard work counters (the info is always zero).
func (c *Coordinator) TopKWithInfo(query, k int) ([]mogul.Result, *mogul.SearchInfo, error) {
	res, err := c.TopK(query, k)
	if err != nil {
		return nil, nil, err
	}
	return res, &mogul.SearchInfo{}, nil
}

// TopKVector is TopKVectorCtx requiring every shard to answer.
func (c *Coordinator) TopKVector(q mogul.Vector, k int) ([]mogul.Result, error) {
	return strict(c.TopKVectorCtx(context.Background(), q, k))
}

// TopKSet is TopKSetCtx requiring every seed-owning shard to answer.
func (c *Coordinator) TopKSet(seeds []int, k int) ([]mogul.Result, error) {
	return strict(c.TopKSetCtx(context.Background(), seeds, k))
}

// TopKBatch answers many in-database queries with a bounded worker
// pool of concurrent fan-outs (default 4).
func (c *Coordinator) TopKBatch(queries []int, k, parallelism int) []mogul.BatchResult {
	if parallelism <= 0 {
		parallelism = 4
	}
	out := make([]mogul.BatchResult, len(queries))
	work := func(i int) {
		res, err := c.TopK(queries[i], k)
		out[i] = mogul.BatchResult{Query: queries[i], Results: res, Err: err}
	}
	fanout.ForEach(len(queries), parallelism, func() func(int) { return work })
	return out
}

// Neighbors returns an item's graph context inside its owning shard,
// remapped to global ids.
func (c *Coordinator) Neighbors(item int) (ids []int, weights []float64, err error) {
	return c.set.Neighbors(c.members(context.Background()), item)
}

// Insert routes one insert (see InsertCtx).
func (c *Coordinator) Insert(v mogul.Vector) (int, error) {
	return c.InsertCtx(context.Background(), v)
}

// Delete routes one delete (see DeleteCtx).
func (c *Coordinator) Delete(id int) error { return c.DeleteCtx(context.Background(), id) }

// Compact folds every shard's delta in (see CompactCtx).
func (c *Coordinator) Compact() error { return c.CompactCtx(context.Background()) }

// Save is unsupported on a coordinator: each shard owns its state —
// snapshot the shard servers individually (/dist/snapshot).
func (c *Coordinator) Save(w io.Writer) error {
	return fmt.Errorf("dist: a coordinator has no single index to save; snapshot each shard server")
}

// SaveFile is unsupported (see Save).
func (c *Coordinator) SaveFile(path string) error { return c.Save(nil) }

// NewQuerier returns the coordinator itself: per-query scratch lives
// shard-side, so there is nothing to pin per worker.
func (c *Coordinator) NewQuerier() mogul.Querier { return c }
