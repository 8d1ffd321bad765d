package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubServer answers after a known service time and counts what the
// generator did to it: connections opened, requests in flight at once.
type stubServer struct {
	url      string
	service  time.Duration
	conns    atomic.Int64
	inFlight atomic.Int64
	peak     atomic.Int64
	stop     func()
}

// reply picks the stub's answer from the request's sequence number.
func newStub(t *testing.T, service time.Duration, reply func(i int) (status int, body string)) *stubServer {
	t.Helper()
	s := &stubServer{service: service}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{
		ConnState: func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				s.conns.Add(1)
			}
		},
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			now := s.inFlight.Add(1)
			for p := s.peak.Load(); now > p && !s.peak.CompareAndSwap(p, now); p = s.peak.Load() {
			}
			time.Sleep(s.service)
			i, _ := strconv.Atoi(r.URL.Query().Get("i"))
			status, body := reply(i)
			s.inFlight.Add(-1)
			w.WriteHeader(status)
			fmt.Fprint(w, body)
		}),
	}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(l)
		close(done)
	}()
	s.url = "http://" + l.Addr().String()
	s.stop = func() {
		_ = srv.Close()
		<-done
	}
	t.Cleanup(s.stop)
	return s
}

// stubScript numbers its requests; a reply containing "wrong" is a
// wrong answer.
type stubScript struct {
	mu *sync.Mutex
	i  *int
}

func (s stubScript) next() request {
	s.mu.Lock()
	defer s.mu.Unlock()
	*s.i++
	return request{op: opRead, method: http.MethodGet, path: fmt.Sprintf("/x?i=%d", *s.i)}
}

func (s stubScript) observe(_ request, body []byte) bool {
	return !bytes.Contains(body, []byte("wrong"))
}

func stubScripts(n int) []script {
	mu, i := new(sync.Mutex), new(int)
	out := make([]script, n)
	for c := range out {
		out[c] = stubScript{mu: mu, i: i}
	}
	return out
}

func ok(int) (int, string) { return http.StatusOK, "fine" }

func TestClosedLoopHonoursClientCount(t *testing.T) {
	clients := maxClients()
	stub := newStub(t, 2*time.Millisecond, ok)
	hc := newHTTPClient(clients)
	defer hc.CloseIdleConnections()
	if got := hc.Transport.(*http.Transport).MaxConnsPerHost; got != clients {
		t.Fatalf("MaxConnsPerHost = %d, want %d", got, clients)
	}
	res := runPhase(context.Background(), hc, stub.url, stubScripts(clients), phaseConfig{clients: clients, count: 40})
	if res.attempted != 40*clients || res.failed != 0 {
		t.Fatalf("attempted %d failed %d, want %d and 0", res.attempted, res.failed, 40*clients)
	}
	if got := stub.conns.Load(); got > int64(clients) {
		t.Errorf("server saw %d connections, generator may open at most %d", got, clients)
	}
	if got := stub.peak.Load(); got > int64(clients) {
		t.Errorf("%d requests in flight at once with %d closed-loop clients", got, clients)
	}
	// Closed loop: a client's next request waits for its previous reply,
	// so the phase cannot finish faster than count x service time.
	if res.elapsed < 40*stub.service {
		t.Errorf("phase took %v, less than 40 x %v service time", res.elapsed, stub.service)
	}
	for _, s := range res.samples {
		if time.Duration(s.lat) < stub.service {
			t.Fatalf("latency %v below the stub's service time %v", time.Duration(s.lat), stub.service)
		}
	}
}

func TestFailuresStayInTheSample(t *testing.T) {
	stub := newStub(t, 0, func(i int) (int, string) {
		switch i % 10 {
		case 1:
			return http.StatusTooManyRequests, "shed"
		case 2:
			return http.StatusInternalServerError, "boom"
		case 3:
			return http.StatusOK, "wrong"
		}
		return http.StatusOK, "fine"
	})
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	res := runPhase(context.Background(), hc, stub.url, stubScripts(1), phaseConfig{clients: 1, count: 100})
	if res.attempted != 100 || res.failed != 30 {
		t.Fatalf("attempted %d failed %d, want 100 and 30", res.attempted, res.failed)
	}
	if got := len(latencies(res.samples, opRead)); got != 100 {
		t.Fatalf("latency sample holds %d of 100 requests: failures were dropped", got)
	}
	if _, rate := sliceStats(res); math.Abs(rate-70/res.elapsed.Seconds()) > 1e-9*rate {
		t.Errorf("rate %v counts failures as completions, want %v", rate, 70/res.elapsed.Seconds())
	}
}

func TestTimedPhaseEndsOnWholePairs(t *testing.T) {
	stub := newStub(t, time.Millisecond, ok)
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	for i := 0; i < 5; i++ {
		res := runPhase(context.Background(), hc, stub.url, stubScripts(1), phaseConfig{clients: 1, duration: 7 * time.Millisecond, stride: 2})
		if res.attempted == 0 || res.attempted%2 != 0 {
			t.Fatalf("timed phase with stride 2 made %d requests; an insert would be left without its delete", res.attempted)
		}
	}
}

// TestReferenceAnswersLikeServe: the reference takes the workload's own
// requests under another path and replies in serve's shape, the same
// way every time.
func TestReferenceAnswersLikeServe(t *testing.T) {
	st := &stack{}
	defer st.close()
	url, err := st.listen(refHandler{rows: 500})
	if err != nil {
		t.Fatal(err)
	}
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	byID := refScript{once{query{id: 7}.request()}}
	byVec := refScript{once{query{vec: make([]float64, 512)}.request()}}
	if got := byID.next().path; got != "/ref?id=7&k=10" {
		t.Errorf("id read became %q, want /ref?id=7&k=10", got)
	}
	if got := byVec.next().path; got != "/ref" {
		t.Errorf("vector read became %q, want /ref", got)
	}
	for _, sc := range []script{byID, byVec} {
		var first []byte
		for i := 0; i < 2; i++ {
			var buf bytes.Buffer
			rq := sc.next()
			if status, _ := do(hc, url, rq, &buf, nil, 0); status != http.StatusOK || !sc.observe(rq, buf.Bytes()) {
				t.Fatalf("%s %s: status %d, body %.80s", rq.method, rq.path, status, buf.Bytes())
			}
			var got wireAnswers
			if err := json.Unmarshal(buf.Bytes(), &got); err != nil || len(got.Answers) != topK {
				t.Fatalf("%s %s: %d answers, err %v", rq.method, rq.path, len(got.Answers), err)
			}
			if i == 0 {
				first = append(first, buf.Bytes()...)
			} else if !bytes.Equal(first, buf.Bytes()) {
				t.Errorf("%s %s answered differently the second time", rq.method, rq.path)
			}
		}
	}
	// Writes in a workload's traffic never reach the reference.
	mixed := refScript{&alternating{}}
	for i := 0; i < 4; i++ {
		if rq := mixed.next(); rq.op != opRead {
			t.Fatalf("reference script passed a %s through", rq.op)
		}
	}
}

// alternating scripts a write, then a read, and so on.
type alternating struct{ n int }

func (a *alternating) next() request {
	a.n++
	if a.n%2 == 1 {
		return request{op: opInsert, method: http.MethodPost, path: "/insert"}
	}
	return query{id: a.n}.request()
}

func (a *alternating) observe(request, []byte) bool { return true }

func TestSliceStats(t *testing.T) {
	// Ten reads of 1..10 ms (one failed, still in the latency sample)
	// and a slow insert that is not a read, over two seconds.
	var r phaseResult
	for i := 1; i <= 10; i++ {
		r.samples = append(r.samples, sample{lat: int64(i) * 1e6, op: opRead, ok: i != 3})
	}
	r.samples = append(r.samples, sample{lat: 500e6, op: opInsert, ok: true})
	r.attempted, r.failed, r.elapsed = 11, 1, 2*time.Second
	p50, rate := sliceStats(r)
	if p50 != 5 || rate != 5 {
		t.Errorf("p50 %v rate %v, want 5 ms and 5 verified completions/s", p50, rate)
	}
	// The figure a run reports is the median over its rounds, which a
	// burst in a minority of rounds cannot move.
	if got := median([]float64{2, 2.1, 40, 1.9, 2, 35, 2.2}); got != 2.1 {
		t.Errorf("median over rounds = %v, want 2.1", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if v, ok := tailPercentile(seq(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1000 = %v, %v; want 990 with exactly ten beyond", v, ok)
	}
	if _, ok := tailPercentile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples reported with fewer than ten beyond it")
	}
	if _, ok := tailPercentile(seq(5000), 0.999); ok {
		t.Error("p999 of 5000 samples reported with five beyond it")
	}
	if v, ok := tailPercentile(seq(10000), 0.999); !ok || v != 9990 {
		t.Errorf("p999 of 10000 = %v, %v; want 9990", v, ok)
	}
	if got := percentile(seq(10), 0.5); got != 5 {
		t.Errorf("nearest-rank p50 of 1..10 = %v, want 5", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, ID: 1, Req: 7},
		{Name: "a", Start: 10, End: 40, ID: 2, Parent: 1, Req: 7},
		{Name: "b", Start: 30, End: 60, ID: 3, Parent: 1, Req: 7}, // overlaps a: union is [10,60]
		{Name: "leaf", Start: 35, End: 55, ID: 4, Parent: 3, Req: 7},
	}
	self := selfTimes(spans)
	if self[1] != 50 || self[2] != 30 || self[3] != 10 || self[4] != 20 {
		t.Errorf("self times %v, want parent 50, a 30, b 10, leaf 20", self)
	}
	if errs := nestingErrors(spans); len(errs) != 0 {
		t.Errorf("well-nested spans reported: %v", errs)
	}
	bad := append(spans[:3:3], span{Name: "late", Start: 90, End: 120, ID: 5, Parent: 1, Req: 7},
		span{Name: "stranger", Start: 20, End: 30, ID: 6, Parent: 2, Req: 8})
	if errs := nestingErrors(bad); len(errs) != 2 {
		t.Errorf("want an escape and a request-id mismatch reported, got %v", errs)
	}
}
