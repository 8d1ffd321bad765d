package mogul

import "mogul/internal/fanout"

// BatchResult pairs one query of a batch with its answers (or error).
type BatchResult struct {
	// Query is the in-database query item id.
	Query int
	// Results are the ranked answers; nil when Err is set.
	Results []Result
	// Err reports a per-query failure (e.g. out-of-range id).
	Err error
}

// topKBatch is the batch entry point of every engine: the queries fan
// out over a bounded worker pool, each worker pinning one private
// Querier for its whole run, so a batch of thousands of queries
// performs thousands of searches on a handful of reusable workspaces.
// Results land in input order; per-query failures are recorded, never
// fatal. parallelism <= 0 selects GOMAXPROCS.
func topKBatch(newQuerier func() Querier, queries []int, k, parallelism int) []BatchResult {
	out := make([]BatchResult, len(queries))
	fanout.ForEach(len(queries), parallelism, func() func(int) {
		sr := newQuerier()
		return func(i int) {
			res, err := sr.TopK(queries[i], k)
			out[i] = BatchResult{Query: queries[i], Results: res, Err: err}
		}
	})
	return out
}
