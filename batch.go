package mogul

import (
	"runtime"
	"sync"
)

// BatchResult pairs one query of a batch with its answers (or error).
type BatchResult struct {
	// Query is the in-database query item id.
	Query int
	// Results are the ranked answers; nil when Err is set.
	Results []Result
	// Err reports a per-query failure (e.g. out-of-range id).
	Err error
}

// runBatch is the shared worker-pool engine behind the batch entry
// points of every engine: n work items are fanned out to the workers,
// each of which builds one run closure over a private query engine (a
// Querier) for its whole run, so a batch
// of thousands of queries performs thousands of searches on a handful
// of reusable workspaces. Results land at their item's index; per-item
// failures are recorded, never fatal. parallelism <= 0 selects
// GOMAXPROCS.
func runBatch(n, parallelism int, worker func() func(i int) BatchResult) []BatchResult {
	out := make([]BatchResult, n)
	if n == 0 {
		return out
	}
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := worker()
			for i := range next {
				out[i] = run(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// topKBatch and topKVectorBatch are the batch entry points of every
// engine: one pinned Querier per worker, results in input order.
func topKBatch(newQuerier func() Querier, queries []int, k, parallelism int) []BatchResult {
	return runBatch(len(queries), parallelism, func() func(int) BatchResult {
		sr := newQuerier()
		return func(i int) BatchResult {
			q := queries[i]
			res, err := sr.TopK(q, k)
			return BatchResult{Query: q, Results: res, Err: err}
		}
	})
}

func topKVectorBatch(newQuerier func() Querier, queries []Vector, k, parallelism int) []BatchResult {
	return runBatch(len(queries), parallelism, func() func(int) BatchResult {
		sr := newQuerier()
		return func(i int) BatchResult {
			res, err := sr.TopKVector(queries[i], k)
			return BatchResult{Query: i, Results: res, Err: err}
		}
	})
}

// TopKBatch answers many in-database queries concurrently. Searches
// only take the index's read lock, so queries parallelize perfectly;
// this is the bulk-evaluation entry point (e.g. scoring a whole query
// log). It is safe to run concurrently with Insert/Delete/Compact:
// each query observes a consistent index state, with inserted items
// competing in its results. parallelism <= 0 selects GOMAXPROCS.
// Results are returned in input order; per-query failures are
// reported in the corresponding BatchResult rather than aborting the
// batch.
func (ix *Index) TopKBatch(queries []int, k, parallelism int) []BatchResult {
	return topKBatch(ix.NewQuerier, queries, k, parallelism)
}

// TopKVectorBatch answers many out-of-sample queries concurrently,
// mirroring TopKBatch. The i-th BatchResult's Query field holds i (the
// position in the input slice).
func (ix *Index) TopKVectorBatch(queries []Vector, k, parallelism int) []BatchResult {
	return topKVectorBatch(ix.NewQuerier, queries, k, parallelism)
}
