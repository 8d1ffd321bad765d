package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Closed-loop load generator. Each client sends its next request only
// when the previous reply has been read to the end, so with c clients
// at most c requests are in flight and at most c connections exist.
//
// Why closed and not open loop: on the 2-core reference container a
// 50 µs timer sleep returns after ~1.1 ms — several times the service
// time of half the workloads — and serve admits GOMAXPROCS requests at
// once, so with <= nproc connections no queue can form inside it. An
// open loop there would measure the timer and the generator's own
// backlog. "solo" (1 client) is unloaded latency, "sat" (maxClients)
// is capacity.

// maxClients is the saturation client count: min(nproc, 2).
func maxClients() int { return min(runtime.NumCPU(), 2) }

type opKind uint8

const (
	opRead opKind = iota
	opInsert
	opDelete
	opCompact
)

func (o opKind) String() string {
	return [...]string{"read", "insert", "delete", "compact"}[o]
}

// request is one scripted call. Bodies are pre-marshalled so the
// generator's cost per request stays small and constant.
type request struct {
	op     opKind
	method string
	path   string
	body   []byte
	// q is the read's query, kept so the reply can be compared with
	// the same call made directly on the engine.
	q query
}

// script produces one client's deterministic request sequence.
// observe sees every 200 reply: it may learn from it (an insert's new
// id) and reports whether the reply is well formed.
type script interface {
	next() request
	observe(req request, body []byte) bool
}

// sample is one completed request.
type sample struct {
	done int64 // ns since the phase began
	lat  int64 // ns, send -> body fully read
	op   opKind
	ok   bool
}

// kept is a reply body retained for the post-phase comparison against
// the same call made directly on the engine.
type kept struct {
	req  request
	body []byte
}

type phaseConfig struct {
	clients int
	// A phase ends after duration, or after count requests per client
	// when count > 0 (whichever is set).
	duration time.Duration
	count    int
	// stride > 1 lets a timed phase end only on a multiple of stride
	// requests per client, so that insert/delete pairs stay whole.
	stride int
	// keepEvery retains the reply of every keepEvery-th read (0: none).
	keepEvery int
	// rec, when tracing, receives one client.request span per call.
	rec *recorder
}

type phaseResult struct {
	samples   []sample
	kept      []kept
	elapsed   time.Duration
	attempted int
	failed    int
}

// newHTTPClient returns a client that can never hold more than conns
// connections to the server.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// do sends one request and reads the reply to the end. A transport
// error is status 0.
func do(hc *http.Client, base string, rq request, buf *bytes.Buffer, rec *recorder, rid int64) (status int, spanID int64) {
	var body io.Reader
	if rq.body != nil {
		body = bytes.NewReader(rq.body)
	}
	hr, err := http.NewRequest(rq.method, base+rq.path, body)
	if err != nil {
		return 0, 0
	}
	if rec != nil {
		spanID = rec.nextID()
		setSpanHeader(hr.Header, rid, spanID)
	}
	resp, err := hc.Do(hr)
	if err != nil {
		return 0, spanID
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, spanID
	}
	return resp.StatusCode, spanID
}

// requestIDs numbers every generator request of the process, so the
// id a trace groups spans by is never reused across phases.
var requestIDs atomic.Int64

// runPhase drives one closed-loop phase. Every attempted request lands
// in the latency sample: a 429, a 5xx, a transport error or a
// malformed reply is a failure, not a dropped point.
func runPhase(ctx context.Context, hc *http.Client, base string, scripts []script, cfg phaseConfig) phaseResult {
	if cfg.clients > len(scripts) {
		panic("runPhase: fewer scripts than clients")
	}
	type clientOut struct {
		samples []sample
		kept    []kept
	}
	outs := make([]clientOut, cfg.clients)
	begin := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sc := scripts[c]
			out := &outs[c]
			out.samples = make([]sample, 0, 1<<14)
			var buf bytes.Buffer
			reads := 0
			for i := 0; ; i++ {
				if cfg.count > 0 && i >= cfg.count {
					break
				}
				if cfg.count == 0 && i%max(cfg.stride, 1) == 0 && time.Since(begin) >= cfg.duration {
					break
				}
				if ctx.Err() != nil {
					break
				}
				rq := sc.next()
				rid := requestIDs.Add(1)
				t0 := time.Now()
				status, spanID := do(hc, base, rq, &buf, cfg.rec, rid)
				lat := time.Since(t0)
				if cfg.rec != nil {
					start := int64(t0.Sub(cfg.rec.origin))
					cfg.rec.add(span{Name: spClient, Start: start, End: start + int64(lat), ID: spanID, Req: rid, Op: rq.op.String()})
				}
				ok := status == http.StatusOK && sc.observe(rq, buf.Bytes())
				out.samples = append(out.samples, sample{done: int64(time.Since(begin)), lat: int64(lat), op: rq.op, ok: ok})
				if rq.op == opRead && ok && cfg.keepEvery > 0 {
					if reads%cfg.keepEvery == 0 {
						out.kept = append(out.kept, kept{req: rq, body: append([]byte(nil), buf.Bytes()...)})
					}
					reads++
				}
			}
		}(c)
	}
	wg.Wait()
	res := phaseResult{elapsed: time.Since(begin)}
	for _, o := range outs {
		res.samples = append(res.samples, o.samples...)
		res.kept = append(res.kept, o.kept...)
	}
	res.attempted = len(res.samples)
	for _, s := range res.samples {
		if !s.ok {
			res.failed++
		}
	}
	return res
}

// latencies returns the sorted latencies (ms) of the samples with the
// given op, failures included.
func latencies(samples []sample, op opKind) []float64 {
	var out []float64
	for _, s := range samples {
		if s.op == op {
			out = append(out, float64(s.lat)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank percentile of a sorted sample; 0 for
// an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(max(rank(len(sorted), p)-1, 0), len(sorted)-1)]
}

// rank is the nearest-rank position (1-based) of percentile p among n
// samples; the epsilon keeps 0.99 * 1000 from rounding up to 991.
func rank(n int, p float64) int { return int(math.Ceil(p*float64(n) - 1e-9)) }

// tailPercentile reports percentile p only when at least ten samples
// lie beyond it; otherwise the tail is noise and ok is false.
func tailPercentile(sorted []float64, p float64) (v float64, ok bool) {
	if len(sorted)-rank(len(sorted), p) < 10 {
		return 0, false
	}
	return percentile(sorted, p), true
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// sliceStats summarises one slice: the median read latency over every
// attempted read, and verified-OK completions per second.
func sliceStats(r phaseResult) (p50ms, rate float64) {
	return percentile(latencies(r.samples, opRead), 0.5), float64(r.attempted-r.failed) / r.elapsed.Seconds()
}

// phaseLine renders the per-phase counts every run prints.
func phaseLine(name string, r phaseResult) string {
	return fmt.Sprintf("phase %-12s attempted %7d  succeeded %7d  failed %d  (%.2fs)",
		name, r.attempted, r.attempted-r.failed, r.failed, r.elapsed.Seconds())
}
