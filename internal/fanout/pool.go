package fanout

import (
	"runtime"
	"sync"

	"mogul/internal/core"
)

// ForEach runs n work items on a bounded pool of up to workers
// goroutines (<= 0 selects GOMAXPROCS) and returns when all are done.
// Each goroutine calls newWorker once and feeds the returned function
// the item indexes it draws, so a worker can own private scratch (a
// pinned Querier, a collector) for its whole run.
func ForEach(n, workers int, newWorker func() func(i int)) {
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
			work := newWorker()
			for i := range next {
				work(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// SumStats aggregates construction statistics over n shards: counts and
// times sum, modularity is the node-weighted mean. get reports false
// for a shard that cannot answer; it is left out.
func SumStats(n int, get func(s int) (core.Stats, bool)) core.Stats {
	var out core.Stats
	var wmod float64
	for s := 0; s < n; s++ {
		st, ok := get(s)
		if !ok {
			continue
		}
		out.NumNodes += st.NumNodes
		out.NumEdges += st.NumEdges
		out.NumClusters += st.NumClusters
		out.BorderSize += st.BorderSize
		out.FactorNNZ += st.FactorNNZ
		out.ClampedPivots += st.ClampedPivots
		out.ClusterTime += st.ClusterTime
		out.PermuteTime += st.PermuteTime
		out.FactorTime += st.FactorTime
		wmod += st.Modularity * float64(st.NumNodes)
	}
	if out.NumNodes > 0 {
		out.Modularity = wmod / float64(out.NumNodes)
	}
	return out
}
