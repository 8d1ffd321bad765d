package serve

import (
	"context"
	"sync"
	"time"

	"mogul"
)

// Micro-batched execution for out-of-sample (/search/vector) traffic.
//
// Under heavy concurrent load, running each vector query on its own
// goroutine wastes the engine's batch machinery: TopKVectorBatch
// amortizes worker setup and keeps a fixed set of pinned Searcher
// workspaces hot. The batcher converts request-level concurrency into
// engine-level batches:
//
//	request -> bounded queue -> collector (waits BatchWindow for
//	company, caps at MaxBatch) -> executor goroutine (one limiter
//	slot per batch) -> one TopKVectorBatch call -> fan results back
//
// Identical in-flight vectors are deduplicated inside the executor —
// a thundering herd asking the same query costs one search — and
// queries that only differ in k share one computation at the largest
// k, since a top-k ranking is a prefix of every larger-k ranking from
// the same state.
//
// The window is a latency *floor* for the first query of a lonely
// batch (it waits out BatchWindow alone), which is why batching is
// opt-in and the window should sit well under the service's latency
// budget: the trade is a few hundred microseconds of added floor for
// a large throughput multiple at saturation (see BenchmarkServeThroughput).

// pending is one enqueued vector query.
type pending struct {
	ctx context.Context
	vec mogul.Vector
	k   int
	// key is the full cache key (vector + k), empty when the cache is
	// off; gkey the dedup group key (vector only).
	key  string
	gkey string
	out  chan batchOut
}

type batchOut struct {
	// ans is the rendered answer rows (see cacheEntry: the executor
	// renders once per distinct k and the cache keeps the same bytes).
	ans []byte
	err error
}

type batcher struct {
	s        *Server
	in       chan *pending
	window   time.Duration
	maxBatch int
	wg       sync.WaitGroup
}

func newBatcher(s *Server, window time.Duration, maxBatch, queue int) *batcher {
	b := &batcher{
		s:        s,
		in:       make(chan *pending, queue),
		window:   window,
		maxBatch: maxBatch,
	}
	b.wg.Add(1)
	go b.collect()
	return b
}

// do enqueues one query and waits for its rendered result. It returns
// errShed when the batch queue is full, errClosed past Close, and the
// context's error if the client goes away first.
func (b *batcher) do(ctx context.Context, v mogul.Vector, k int, key string) ([]byte, error) {
	p := &pending{
		ctx:  ctx,
		vec:  v,
		k:    k,
		key:  key,
		gkey: vectorGroupKey(v),
		out:  make(chan batchOut, 1),
	}
	select {
	case b.in <- p:
	default:
		// Queue full: shed at the door, before any goroutine or timer
		// is spent on the request.
		return nil, errShed
	}
	select {
	case out := <-p.out:
		return out.ans, out.err
	case <-ctx.Done():
		// The executor will still deliver into the buffered channel;
		// nothing leaks, nobody blocks.
		return nil, ctx.Err()
	case <-b.s.baseCtx.Done():
		return nil, errClosed
	}
}

// collect is the single forming loop: it blocks for a first query,
// keeps the batch open for the window (or until MaxBatch), then hands
// the formed batch to its own executor goroutine and immediately
// starts forming the next — forming and executing pipeline against
// each other.
func (b *batcher) collect() {
	defer b.wg.Done()
	stop := b.s.baseCtx.Done()
	for {
		var first *pending
		select {
		case first = <-b.in:
		case <-stop:
			b.drain()
			return
		}
		batch := make([]*pending, 1, b.maxBatch)
		batch[0] = first
		timer := time.NewTimer(b.window)
		for len(batch) < b.maxBatch {
			select {
			case p := <-b.in:
				batch = append(batch, p)
				continue
			case <-timer.C:
			case <-stop:
			}
			break
		}
		timer.Stop()
		b.wg.Add(1)
		go b.exec(batch)
		select {
		case <-stop:
			b.drain()
			return
		default:
		}
	}
}

// drain fails everything still queued at shutdown.
func (b *batcher) drain() {
	for {
		select {
		case p := <-b.in:
			p.out <- batchOut{err: errClosed}
		default:
			return
		}
	}
}

// exec runs one formed batch: admission, dedup, a single
// TopKVectorBatch call, then result fan-out and cache fill.
func (b *batcher) exec(batch []*pending) {
	defer b.wg.Done()
	s := b.s
	if err := s.lim.acquire(s.baseCtx); err != nil {
		// errShed propagates to every waiter, whose handler counts the
		// shed and answers 429; anything else here means shutdown.
		if err != errShed {
			err = errClosed
		}
		for _, p := range batch {
			p.out <- batchOut{err: err}
		}
		return
	}
	defer s.lim.release()

	// Group by vector: one engine query per distinct vector, at the
	// largest k any waiter asked for. Clients that vanished while the
	// batch formed are dropped here — and if a whole group vanished,
	// its computation is skipped entirely.
	groups := make(map[string]int, len(batch))
	var (
		vecs []mogul.Vector
		kmax []int
		want [][]*pending
	)
	live := 0
	for _, p := range batch {
		if p.ctx.Err() != nil {
			p.out <- batchOut{err: p.ctx.Err()}
			continue
		}
		live++
		gi, ok := groups[p.gkey]
		if !ok {
			gi = len(vecs)
			groups[p.gkey] = gi
			vecs = append(vecs, p.vec)
			kmax = append(kmax, p.k)
			want = append(want, nil)
		} else if p.k > kmax[gi] {
			kmax[gi] = p.k
		}
		want[gi] = append(want[gi], p)
	}
	if live == 0 {
		return
	}
	s.met.batches.Add(1)
	s.met.batchedQueries.Add(int64(live))
	s.met.coalesced.Add(int64(live - len(vecs)))
	s.met.batchSize.observe(int64(live))

	// One k per TopKVectorBatch call: run at the batch-wide maximum
	// and truncate per waiter — top-k lists are prefix-consistent.
	kAll := 0
	for _, k := range kmax {
		if k > kAll {
			kAll = k
		}
	}
	ver := s.idx.Version()
	brs := s.idx.TopKVectorBatch(vecs, kAll, 0)
	for gi, br := range brs {
		if br.Err != nil {
			for _, p := range want[gi] {
				p.out <- batchOut{err: br.Err}
			}
			continue
		}
		// Render (and cache-fill) once per distinct k in the group — a
		// coalesced herd shares one key, and re-rendering the same rows
		// per waiter would put the redundant work right back on the
		// saturation path the batcher exists to relieve.
		var rendered map[int]batchOut
		for _, p := range want[gi] {
			out, ok := rendered[p.k]
			if !ok {
				res := br.Results
				if p.k < len(res) {
					res = res[:p.k]
				}
				e, err := s.cacheSet(p.key, ver, res, mogul.SearchInfo{})
				out = batchOut{ans: e.answers, err: err}
				if rendered == nil {
					rendered = make(map[int]batchOut, 1)
				}
				rendered[p.k] = out
			}
			p.out <- out
		}
	}
}
