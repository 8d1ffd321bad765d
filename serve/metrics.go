package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// Observability without dependencies: a fixed set of counters,
// gauges, and histograms exported in the Prometheus text exposition
// format (version 0.0.4) by /metrics. Everything is atomics — the
// hot path pays a handful of uncontended atomic adds per request —
// and the endpoint set is the route table, fixed before the server takes
// traffic, so it is read without locking.

// latencyBoundsUS are the latency histogram bucket upper bounds in
// microseconds (exported as seconds): 5µs to 1s, roughly
// logarithmic — the span from a warm cache hit (1-5µs in the handler)
// to a compaction-stalled tail.
var latencyBoundsUS = []int64{
	5, 10, 25, 50, 100, 250, 500,
	1000, 2500, 5000, 10000, 25000, 50000,
	100000, 250000, 500000, 1000000,
}

// hist is a lock-free fixed-bucket histogram over int64 observations.
// Buckets store per-bin counts; the Prometheus cumulative form is
// produced at export time.
type hist struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1; last bin is +Inf
	count   atomic.Int64
	sum     atomic.Int64
}

func newHist(bounds []int64) *hist {
	return &hist{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
}

func (h *hist) observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// endpointMetrics is the per-endpoint bundle every route carries.
type endpointMetrics struct {
	requests atomic.Int64
	errors   atomic.Int64
	latUS    atomic.Int64
	latency  *hist
}

// observe records one completed request.
func (em *endpointMetrics) observe(status int, took time.Duration) {
	em.requests.Add(1)
	if status >= 400 {
		em.errors.Add(1)
	}
	us := took.Microseconds()
	em.latUS.Add(us)
	em.latency.observe(us)
}

// metrics is the server-wide registry.
type metrics struct {
	// shed counts requests refused with 429.
	shed atomic.Int64

	// cacheHits/cacheMisses count version-VALID cache outcomes: an
	// entry that is resident but stamped with a stale version is a
	// miss here (and a hit in the LRU's own residency counters).
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
}

// handleMetrics renders the Prometheus text exposition format. No
// client library — the format is lines of "name{labels} value", and
// a retrieval server has no business pulling in a metrics SDK for
// that.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m := s.met

	fmt.Fprintf(w, "# HELP mogul_requests_total Requests handled, by endpoint.\n")
	fmt.Fprintf(w, "# TYPE mogul_requests_total counter\n")
	for _, rt := range s.routes {
		fmt.Fprintf(w, "mogul_requests_total{endpoint=%q} %d\n", rt.name, rt.requests.Load())
	}
	fmt.Fprintf(w, "# HELP mogul_request_errors_total Requests answered with a 4xx/5xx status, by endpoint.\n")
	fmt.Fprintf(w, "# TYPE mogul_request_errors_total counter\n")
	for _, rt := range s.routes {
		fmt.Fprintf(w, "mogul_request_errors_total{endpoint=%q} %d\n", rt.name, rt.errors.Load())
	}

	fmt.Fprintf(w, "# HELP mogul_request_duration_seconds Request latency, by endpoint.\n")
	fmt.Fprintf(w, "# TYPE mogul_request_duration_seconds histogram\n")
	for _, rt := range s.routes {
		if rt.requests.Load() == 0 {
			continue
		}
		label := rt.name
		cum := int64(0)
		for i, b := range rt.latency.bounds {
			cum += rt.latency.buckets[i].Load()
			fmt.Fprintf(w, "mogul_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n",
				label, formatSeconds(b), cum)
		}
		cum += rt.latency.buckets[len(rt.latency.bounds)].Load()
		fmt.Fprintf(w, "mogul_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", label, cum)
		fmt.Fprintf(w, "mogul_request_duration_seconds_sum{endpoint=%q} %g\n",
			label, float64(rt.latency.sum.Load())/1e6)
		fmt.Fprintf(w, "mogul_request_duration_seconds_count{endpoint=%q} %d\n", label, cum)
	}

	if s.cache != nil {
		cs := s.cache.Stats()
		fmt.Fprintf(w, "# HELP mogul_cache_hits_total Version-valid result cache hits.\n# TYPE mogul_cache_hits_total counter\nmogul_cache_hits_total %d\n", m.cacheHits.Load())
		fmt.Fprintf(w, "# HELP mogul_cache_misses_total Result cache misses (absent or stale-version entries).\n# TYPE mogul_cache_misses_total counter\nmogul_cache_misses_total %d\n", m.cacheMisses.Load())
		fmt.Fprintf(w, "# HELP mogul_cache_evictions_total Result cache evictions (byte budget).\n# TYPE mogul_cache_evictions_total counter\nmogul_cache_evictions_total %d\n", cs.Evictions)
		fmt.Fprintf(w, "# HELP mogul_cache_entries Resident result cache entries.\n# TYPE mogul_cache_entries gauge\nmogul_cache_entries %d\n", cs.Entries)
		fmt.Fprintf(w, "# HELP mogul_cache_bytes Resident result cache bytes.\n# TYPE mogul_cache_bytes gauge\nmogul_cache_bytes %d\n", cs.Bytes)
	}

	fmt.Fprintf(w, "# HELP mogul_shed_total Requests shed with 429 by backpressure.\n# TYPE mogul_shed_total counter\nmogul_shed_total %d\n", m.shed.Load())

	ds := s.idx.Delta()
	fmt.Fprintf(w, "# HELP mogul_index_version Index mutation version.\n# TYPE mogul_index_version gauge\nmogul_index_version %d\n", s.idx.Version())
	fmt.Fprintf(w, "# HELP mogul_index_items Live indexed items.\n# TYPE mogul_index_items gauge\nmogul_index_items %d\n", s.idx.Len())
	fmt.Fprintf(w, "# HELP mogul_index_delta_items Live inserted items awaiting compaction.\n# TYPE mogul_index_delta_items gauge\nmogul_index_delta_items %d\n", ds.DeltaItems)
	fmt.Fprintf(w, "# HELP mogul_index_tombstones Deleted items awaiting compaction.\n# TYPE mogul_index_tombstones gauge\nmogul_index_tombstones %d\n", ds.Tombstones)
}

// formatSeconds renders a microsecond bound as a seconds le label
// ("0.00025", "1").
func formatSeconds(us int64) string {
	return strconv.FormatFloat(float64(us)/1e6, 'g', -1, 64)
}
