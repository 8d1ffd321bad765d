package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"mogul"
)

// TestServeRaceTraffic drives the full serving stack — cache, limiter,
// metrics — with concurrent search and mutation HTTP traffic.
// Meaningful under -race (CI runs it there); afterwards, with mutators
// quiescent, every warm cache entry must agree with a fresh
// computation: the version stamp may never let a pre-mutation ranking
// survive as current.
func TestServeRaceTraffic(t *testing.T) {
	ds := mogul.NewMixture(mogul.MixtureConfig{
		N: 200, Classes: 4, Dim: 6, WithinStd: 0.25, Separation: 2.0, Seed: 33,
	})
	idx, err := mogul.BuildFromDataset(ds, mogul.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(idx, Options{
		CacheBytes:  1 << 20,
		MaxInFlight: 8,
		MaxQueue:    1024,
	})
	t.Cleanup(s.Close)

	// A fixed probe pool so traffic actually collides on cache keys.
	probeVecs := make([]mogul.Vector, 4)
	for i := range probeVecs {
		probeVecs[i] = ds.Points[i*7]
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				var rec *httptest.ResponseRecorder
				switch rng.Intn(4) {
				case 0:
					rec, _ = doJSONQuiet(s, http.MethodGet,
						fmt.Sprintf("/search?id=%d&k=5", rng.Intn(ds.Len())), nil)
				case 1:
					rec, _ = doJSONQuiet(s, http.MethodPost, "/search/vector", map[string]interface{}{
						"vector": probeVecs[rng.Intn(len(probeVecs))], "k": 5,
					})
				case 2:
					rec, _ = doJSONQuiet(s, http.MethodPost, "/search/set", map[string]interface{}{
						"ids": []int{rng.Intn(ds.Len()), rng.Intn(ds.Len())}, "k": 4,
					})
				default:
					rec, _ = doJSONQuiet(s, http.MethodGet, "/metrics", nil)
				}
				switch rec.Code {
				case http.StatusOK, http.StatusBadRequest,
					http.StatusTooManyRequests, http.StatusServiceUnavailable:
					// 400: racing a delete/compact; 429/503: backpressure.
				default:
					select {
					case <-stop:
					default:
						t.Errorf("unexpected status %d: %s", rec.Code, rec.Body.String())
					}
					return
				}
			}
		}(int64(w))
	}
	// One mutator: inserts, deletes, compactions through the handlers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch rng.Intn(6) {
			case 0, 1, 2:
				v := append([]float64(nil), ds.Points[rng.Intn(ds.Len())]...)
				v[1] += rng.Float64() * 0.01
				doJSONQuiet(s, http.MethodPost, "/insert", map[string]interface{}{"vector": v})
			case 3, 4:
				doJSONQuiet(s, http.MethodPost, "/delete", map[string]interface{}{"id": rng.Intn(ds.Len())})
			default:
				doJSONQuiet(s, http.MethodPost, "/compact", nil)
			}
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiescent check: no mutator is running, so a cached answer (the
	// second identical request) must equal a computation that bypasses
	// the cache entirely.
	fresh := New(idx, Options{})
	t.Cleanup(fresh.Close)
	version := idx.Version()
	probes := []struct {
		method, path string
		body         interface{}
	}{
		{http.MethodGet, "/search?id=3&k=5", nil},
		{http.MethodGet, "/search?id=42&k=5", nil},
		{http.MethodPost, "/search/vector", map[string]interface{}{"vector": probeVecs[0], "k": 5}},
		{http.MethodPost, "/search/set", map[string]interface{}{"ids": []int{1, 2}, "k": 4}},
	}
	for _, rq := range probes {
		doJSONQuiet(s, rq.method, rq.path, rq.body) // warm
		rec1, body1 := doJSONQuiet(s, rq.method, rq.path, rq.body)
		rec2, body2 := doJSONQuiet(fresh, rq.method, rq.path, rq.body)
		if rec1.Code != rec2.Code {
			t.Fatalf("%s %s: cached status %d vs fresh %d", rq.method, rq.path, rec1.Code, rec2.Code)
		}
		if rec1.Code != http.StatusOK {
			continue
		}
		a1, _ := json.Marshal(body1["answers"])
		a2, _ := json.Marshal(body2["answers"])
		if !bytes.Equal(a1, a2) {
			t.Fatalf("%s %s: stale cache hit after quiescence\ncached: %s\nfresh:  %s", rq.method, rq.path, a1, a2)
		}
	}
	if idx.Version() != version {
		t.Fatal("index version moved during the quiescent check")
	}
}

// gated wraps a Retriever so its search paths block until the gate
// opens — the controllable "slow backend" the shed tests need.
type gated struct {
	mogul.Retriever
	gate chan struct{}
}

func (g *gated) NewQuerier() mogul.Querier {
	return &gatedQuerier{g.Retriever.NewQuerier(), g.gate}
}

type gatedQuerier struct {
	mogul.Querier
	gate chan struct{}
}

func (q *gatedQuerier) TopKWithInfo(id, k int) ([]mogul.Result, *mogul.SearchInfo, error) {
	<-q.gate
	return q.Querier.TopKWithInfo(id, k)
}

// TestShedBackpressure: with one execution slot and one queue slot
// against a blocked backend, excess requests are shed *immediately*
// with 429 + Retry-After — and once the backend unblocks, everything
// drains without leaking a single goroutine.
func TestShedBackpressure(t *testing.T) {
	idx, _ := testIndex(t)
	gate := make(chan struct{})
	baseline := runtime.NumGoroutine()
	s := New(&gated{Retriever: idx, gate: gate}, Options{
		MaxInFlight: 1,
		MaxQueue:    1,
		RetryAfter:  3 * time.Second,
	})

	const clients = 10
	codes := make(chan int, clients)
	retryAfter := make(chan string, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec, _ := doJSONQuiet(s, http.MethodGet, "/search?id=1&k=3", nil)
			codes <- rec.Code
			retryAfter <- rec.Header().Get("Retry-After")
		}()
	}
	// Shed responses return while the gate is still closed: only the
	// executing request and the one queued slot can be outstanding.
	deadline := time.After(5 * time.Second)
	shed := 0
	for shed < clients-2 {
		select {
		case code := <-codes:
			if code != http.StatusTooManyRequests {
				t.Fatalf("pre-unblock completion with status %d, want 429", code)
			}
			if ra := <-retryAfter; ra != "3" {
				t.Fatalf("Retry-After %q, want \"3\"", ra)
			}
			shed++
		case <-deadline:
			t.Fatalf("only %d of %d excess requests were shed before unblocking", shed, clients-2)
		}
	}
	close(gate)
	wg.Wait()
	close(codes)
	ok := 0
	for code := range codes {
		if code == http.StatusOK {
			ok++
		}
	}
	if ok != 2 {
		t.Fatalf("%d requests succeeded after unblock, want 2 (1 executing + 1 queued)", ok)
	}
	if got := s.met.shed.Load(); got != int64(shed) {
		t.Fatalf("shed metric %d, want %d", got, shed)
	}

	// No goroutine leaks: we are back to the baseline (give the runtime
	// a moment to reap).
	s.Close()
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if i > 100 {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d now vs %d baseline\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
