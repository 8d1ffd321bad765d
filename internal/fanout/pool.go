package fanout

import (
	"runtime"
	"sync"
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
