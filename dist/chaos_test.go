package dist_test

// Chaos suite: a 3-shard loopback cluster under concurrent query
// load while faults flip on and off — latency spikes, dropped
// requests, a full partition, mid-body connection resets. The
// invariants under chaos:
//
//  1. No search returns a WRONG answer: every successful fan-out is
//     bit-identical to the healthy oracle (exact mode), degraded or
//     not — failure may shrink coverage, never corrupt it. (Shards
//     are not mutated during the storm, so any successful merge over
//     answering shards containing the owner is deterministic.)
//  2. Degraded reporting is truthful: complete results answer from
//     all shards; incomplete ones name the faulted shards.
//  3. Nothing leaks: once the storm ends and the cluster closes, the
//     goroutine count returns to baseline (run under -race in CI).

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"mogul"
	"mogul/dist"
	"mogul/dist/disttest"
)

func TestChaosFanOut(t *testing.T) {
	ds := mogul.NewMixture(mogul.MixtureConfig{N: 240, Classes: 6, Dim: 8, WithinStd: 0.25, Separation: 3, Seed: 7})
	opts := mogul.Options{Seed: 3, Exact: true}
	cl := disttest.NewCluster(t, disttest.ClusterConfig{
		Shards: 3,
		Points: ds.Points,
		Build:  opts,
		Client: dist.ClientOptions{Timeout: 500 * time.Millisecond, Retries: 1, Backoff: 2 * time.Millisecond},
		Coord:  dist.CoordOptions{ShardTimeout: time.Second},
	})
	oracle, err := mogul.BuildSharded(ds.Points, opts, mogul.ShardOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Precompute the oracle's answers: the cluster is not mutated
	// during the storm, so these stay the truth throughout.
	queries := sampleQueries(ds.Len(), 13)
	want := make(map[int][]mogul.Result, len(queries))
	for _, q := range queries {
		res, err := oracle.TopK(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = res
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// The fault storm: flip one fault on, hold, clear, repeat.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(42))
		for i := 0; ; i++ {
			select {
			case <-stop:
				for _, f := range cl.Faults {
					f.Clear()
				}
				return
			default:
			}
			f := cl.Faults[rng.Intn(len(cl.Faults))]
			switch rng.Intn(4) {
			case 0:
				f.Partition()
			case 1:
				f.DropEvery(2)
			case 2:
				f.Latency(5 * time.Millisecond)
			case 3:
				f.ResetAfter(64)
			}
			time.Sleep(10 * time.Millisecond)
			f.Clear()
		}
	}()

	// Query workers: hammer the ctx surface, verifying invariant 1
	// on every success and invariant 2 on every outcome.
	var (
		mu        sync.Mutex
		successes int
		degradeds int
	)
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[rng.Intn(len(queries))]
				res, deg, err := cl.Coord.TopKCtx(context.Background(), q, 10)
				if err != nil {
					continue // owner unreachable this instant — acceptable
				}
				if deg.Complete() {
					// Full fan-out must be bit-identical to the oracle.
					if !slices.Equal(res, want[q]) {
						t.Errorf("complete fan-out for %d diverged from oracle:\ngot  %v\nwant %v", q, res, want[q])
						return
					}
					mu.Lock()
					successes++
					mu.Unlock()
				} else {
					// Degraded: every answer must still be a subset of
					// plausible candidates — ids must be valid and the
					// failed map non-empty.
					if len(deg.Failed) == 0 {
						t.Error("incomplete result with empty Failed map")
						return
					}
					for _, r := range res {
						if r.Node < 0 || r.Node >= ds.Len() {
							t.Errorf("degraded result for %d contains invalid id %d", q, r.Node)
							return
						}
					}
					mu.Lock()
					degradeds++
					mu.Unlock()
				}
			}
		}(w)
	}

	time.Sleep(600 * time.Millisecond)
	close(stop)
	wg.Wait()
	t.Logf("chaos storm: %d complete (oracle-identical) results, %d degraded", successes, degradeds)
	if successes == 0 {
		t.Error("no complete fan-out ever succeeded under chaos — faults too aggressive to prove invariant 1")
	}
	if degradeds == 0 {
		t.Log("note: no degraded results observed this run (timing-dependent)")
	}
}

// TestChaosGoroutineHygiene pins invariant 3 precisely: boot a
// cluster, run a short storm, tear everything down explicitly, and
// require the goroutine count back at baseline.
func TestChaosGoroutineHygiene(t *testing.T) {
	ds := mogul.NewMixture(mogul.MixtureConfig{N: 120, Classes: 4, Dim: 6, WithinStd: 0.3, Separation: 3, Seed: 3})
	baseline := runtime.NumGoroutine()

	inner := &cleanupRecorder{T: t}
	cl := disttest.NewCluster(inner, disttest.ClusterConfig{
		Shards: 2,
		Points: ds.Points,
		Build:  mogul.Options{Seed: 5, Exact: true},
		Client: dist.ClientOptions{Timeout: 200 * time.Millisecond, Retries: 1, Backoff: time.Millisecond},
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if i%5 == 0 {
					cl.Faults[w%2].ResetAfter(32)
				} else {
					cl.Faults[w%2].Clear()
				}
				_, _, _ = cl.Coord.TopKCtx(context.Background(), i%ds.Len(), 5)
			}
		}(w)
	}
	wg.Wait()
	inner.runCleanups() // tear the cluster down NOW, not at test end

	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if i > 100 {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after chaos teardown: %d now vs %d baseline\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// cleanupRecorder intercepts t.Cleanup registrations so a test can
// run a harness's teardown mid-test and then assert on the quiesced
// state.
type cleanupRecorder struct {
	*testing.T
	cleanups []func()
	ran      bool
}

func (c *cleanupRecorder) Cleanup(f func()) {
	c.cleanups = append(c.cleanups, f)
	if !c.ran {
		// Also register with the real T as a safety net in case the
		// test fails before calling runCleanups.
		c.T.Cleanup(func() {
			if !c.ran {
				f()
			}
		})
	}
}

func (c *cleanupRecorder) runCleanups() {
	for i := len(c.cleanups) - 1; i >= 0; i-- {
		c.cleanups[i]()
	}
	c.ran = true
}

// TestCoordinatorStatsDeadline: Stats, which /health calls, asks each
// shard as every read does — hedged under the per-shard deadline — so a
// slow shard is left out of the sums instead of stalling it.
func TestCoordinatorStatsDeadline(t *testing.T) {
	ds := mogul.NewMixture(mogul.MixtureConfig{N: 120, Classes: 4, Dim: 6, WithinStd: 0.25, Separation: 3, Seed: 7})
	cl := disttest.NewCluster(t, disttest.ClusterConfig{
		Shards: 3,
		Points: ds.Points,
		Build:  mogul.Options{Seed: 3},
		Client: dist.ClientOptions{Timeout: 5 * time.Second},
		Coord:  dist.CoordOptions{ShardTimeout: 50 * time.Millisecond},
	})
	all := cl.Coord.Stats()
	cl.Faults[1].Latency(time.Second)
	defer cl.Faults[1].Clear()
	start := time.Now()
	st := cl.Coord.Stats()
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("Stats took %v behind one slow shard, ShardTimeout 50ms", took)
	}
	if want := all.NumNodes - cl.Servers[1].Index().Stats().NumNodes; st.NumNodes != want {
		t.Fatalf("Stats counts %d nodes, want %d: the slow shard left out", st.NumNodes, want)
	}
}

// TestCoordinatorStatsAsksShardsAtOnce: with every shard slow, Stats
// waits out one per-shard deadline for all of them, not one per shard
// (four in turn took ~200 ms at ShardTimeout 50 ms), and counts nothing.
func TestCoordinatorStatsAsksShardsAtOnce(t *testing.T) {
	const timeout = 50 * time.Millisecond
	ds := mogul.NewMixture(mogul.MixtureConfig{N: 160, Classes: 4, Dim: 6, WithinStd: 0.25, Separation: 3, Seed: 7})
	cl := disttest.NewCluster(t, disttest.ClusterConfig{
		Shards: 4,
		Points: ds.Points,
		Build:  mogul.Options{Seed: 3},
		Client: dist.ClientOptions{Timeout: 5 * time.Second},
		Coord:  dist.CoordOptions{ShardTimeout: timeout},
	})
	for _, f := range cl.Faults {
		f.Latency(time.Second)
		defer f.Clear()
	}
	start := time.Now()
	st := cl.Coord.Stats()
	if took := time.Since(start); took >= 2*timeout {
		t.Fatalf("Stats took %v over four slow shards, ShardTimeout %v", took, timeout)
	}
	if st.NumNodes != 0 {
		t.Fatalf("Stats counts %d nodes with no shard answering", st.NumNodes)
	}
}
