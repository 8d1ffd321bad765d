// Package serve is Mogul's production HTTP serving layer: it wraps any
// mogul.Retriever — a plain *mogul.Index, a *mogul.ShardedIndex, or
// whatever future backend implements the interface — in a JSON query
// service built for sustained traffic, not demos. On top of the plain
// handlers it layers:
//
//   - a version-keyed result cache (internal/lru): query results are
//     stamped with the index's mutation Version, so every Insert,
//     Delete, or Compact invalidates the whole cache implicitly — no
//     explicit flush, no stale answers;
//   - pooled execution: every search borrows a reusable mogul.Querier
//     and runs on its request's goroutine, one path for every kind of
//     query;
//   - backpressure: a semaphore plus a queue-depth limit shed excess
//     load with 429 and a Retry-After header instead of letting
//     latency collapse;
//   - observability: per-endpoint request/error counters and latency
//     histograms, cache effectiveness, and index state,
//     exported at /metrics in Prometheus text format with no external
//     dependencies.
//
// Construct with New and mount the returned *Server as an
// http.Handler; Run provides the graceful serve loop a production main
// wants. See docs/SERVING.md for architecture, tuning, and the metrics
// reference.
//
// Endpoints:
//
//	GET  /healthz                  -> index stats + liveness
//	GET  /stats                    -> per-endpoint request counters (JSON)
//	GET  /metrics                  -> Prometheus text format
//	GET  /search?id=17&k=10        -> in-database query
//	POST /search/vector {"vector":[...], "k":10}
//	                               -> out-of-sample query
//	POST /search/set {"ids":[1,2,3], "k":10}
//	                               -> multi-seed query
//	POST /search/batch {"ids":[...], "k":10}
//	                               -> bulk in-database queries
//	GET  /item/17                  -> item metadata (label, neighbours)
//	POST /insert {"vector":[...]}  -> online insert, returns the new id
//	POST /delete {"id":17}         -> online delete (tombstone)
//	POST /compact                  -> fold the delta into a fresh base
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"mogul"
	"mogul/internal/jsonwire"
	"mogul/internal/lru"
)

// Options configures a Server. The zero value serves correctly with
// caching disabled and backpressure at GOMAXPROCS concurrent searches.
type Options struct {
	// Labels attaches per-item labels (by id) to search answers; nil
	// serves unlabelled. Labels index base items, so they are dropped
	// automatically once a compaction after deletions renumbers ids.
	Labels []int

	// CacheBytes is the result cache budget in bytes; 0 disables
	// caching. Entries are stamped with the index mutation version, so
	// any Insert/Delete/Compact invalidates the cache implicitly.
	CacheBytes int64

	// MaxInFlight bounds concurrently executing search work — each
	// query and each /search/batch call holds one slot (default
	// GOMAXPROCS).
	MaxInFlight int
	// MaxQueue bounds requests waiting for a slot; arrivals beyond it
	// are shed with 429 (default 4x MaxInFlight).
	MaxQueue int
	// RetryAfter is advertised in the Retry-After header of shed
	// responses (default 1s, rounded up to whole seconds).
	RetryAfter time.Duration
}

// withDefaults resolves zero fields to their documented defaults.
func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if o.MaxQueue <= 0 {
		o.MaxQueue = 4 * o.MaxInFlight
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	return o
}

// Server is the serving layer around one Retriever. It implements
// http.Handler; construct with New. All handlers are safe for
// concurrent use.
type Server struct {
	idx  mogul.Retriever
	mux  *http.ServeMux
	opts Options
	// routes is the route table in registration order: what the mux
	// serves and what /metrics and /stats report. Filled by Handle
	// before the server takes traffic, read-only afterwards.
	routes []*route

	// cache is the version-stamped query-result cache; nil when
	// disabled.
	cache *lru.Cache[string, cacheEntry]
	// lim backpressures search execution.
	lim *limiter
	met *metrics

	// mutateMu serializes the mutating handlers (/insert, /delete,
	// /compact) so that "index mutated" and "label bookkeeping
	// updated" are atomic with respect to a racing compaction —
	// otherwise a compact (explicit, or auto-triggered inside Insert)
	// could renumber ids after a delete whose record it never saw,
	// leaving labels silently misaligned. Searches never take it.
	mutateMu sync.Mutex
	// labelMu guards labels and deleted: labels index items by id, so
	// they go stale when a compaction renumbers ids after deletions.
	labelMu sync.RWMutex
	labels  []int
	deleted bool

	// searchers recycles per-request query engines: each search
	// handler borrows a mogul.Querier (which owns the score vectors
	// and top-k heap for one query) for the duration of the request,
	// so a busy server runs steady-state searches without per-request
	// allocation — net/http goroutines come and go, the workspaces
	// stay.
	searchers sync.Pool
}

// New builds the serving layer over idx. The returned Server is an
// http.Handler ready to mount; it starts no goroutines.
func New(idx mogul.Retriever, opts Options) *Server {
	o := opts.withDefaults()
	s := &Server{idx: idx, opts: o, mux: http.NewServeMux(), labels: o.Labels, met: &metrics{}}
	s.lim = &limiter{
		sem:      make(chan struct{}, o.MaxInFlight),
		maxQueue: int64(o.MaxQueue),
	}
	if o.CacheBytes > 0 {
		s.cache = lru.New[string, cacheEntry](o.CacheBytes, cacheShards)
	}
	s.Handle(http.MethodGet, "/healthz", "healthz", s.handleHealth)
	s.Handle(http.MethodGet, "/stats", "stats", s.handleStats)
	s.Handle(http.MethodGet, "/metrics", "metrics", s.handleMetrics)
	s.Handle(http.MethodGet, "/search", "search", s.handleSearch)
	s.Handle(http.MethodPost, "/search/vector", "search_vector", s.handleSearchVector)
	s.Handle(http.MethodPost, "/search/set", "search_set", s.handleSearchSet)
	s.Handle(http.MethodPost, "/search/batch", "search_batch", s.handleSearchBatch)
	s.Handle(http.MethodGet, "/item/", "item", s.handleItem)
	s.Handle(http.MethodPost, "/insert", "insert", s.handleInsert)
	s.Handle(http.MethodPost, "/delete", "delete", s.handleDelete)
	s.Handle(http.MethodPost, "/compact", "compact", s.handleCompact)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close is a no-op kept for callers that pair New with it: the Server
// holds no goroutines or other resources beyond its handlers' own. It
// does not close the Retriever.
func (s *Server) Close() {}

// Run serves h on l until ctx is cancelled (what SIGTERM should do in
// production), then shuts down gracefully: the listener closes
// immediately, in-flight requests get up to grace to finish. A clean
// shutdown returns nil.
func Run(ctx context.Context, l net.Listener, h http.Handler, grace time.Duration) error {
	srv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), grace)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return err
		}
		if err := <-errc; err != nil && err != http.ErrServerClosed {
			return err
		}
		return nil
	}
}

// searcher borrows a reusable query engine for one request; pair with
// putSearcher.
func (s *Server) searcher() mogul.Querier {
	if sr, ok := s.searchers.Get().(mogul.Querier); ok {
		return sr
	}
	return s.idx.NewQuerier()
}

func (s *Server) putSearcher(sr mogul.Querier) { s.searchers.Put(sr) }

// route is one row of the route table: the pattern the mux matches, the
// one method it answers, and the endpoint label its request, error and
// latency series carry in /metrics and /stats.
type route struct {
	method, pattern, name string
	endpointMetrics
}

// Handle mounts h at pattern: requests with any other method get the
// canonical 405, and every request is counted under the endpoint label
// name. It is how this package registers its own routes and how a
// layer that extends the server (dist.ShardServer) adds more; call it
// before the server takes traffic.
func (s *Server) Handle(method, pattern, name string, h http.HandlerFunc) {
	rt := &route{method: method, pattern: pattern, name: name}
	rt.latency = newHist(latencyBoundsUS)
	s.routes = append(s.routes, rt)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := statusWriters.Get().(*statusWriter)
		sw.ResponseWriter, sw.code = w, 0
		if r.Method != method {
			WriteError(sw, http.StatusMethodNotAllowed, "use "+method)
		} else {
			h(sw, r)
		}
		rt.observe(sw.status(), time.Since(t0))
		sw.ResponseWriter = nil
		statusWriters.Put(sw)
	})
}

// statusWriter captures the response status for the metrics layer.
type statusWriter struct {
	http.ResponseWriter
	code int
}

// statusWriters recycles the wrapper every request gets: a handler may
// not use its ResponseWriter once it has returned, so the wrapper is
// free the moment the request has been observed.
var statusWriters = sync.Pool{New: func() interface{} { return new(statusWriter) }}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// shed writes the backpressure response: 429 with a Retry-After hint.
func (s *Server) shed(w http.ResponseWriter) {
	s.met.shed.Add(1)
	secs := int((s.opts.RetryAfter + time.Second - 1) / time.Second)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	WriteError(w, http.StatusTooManyRequests, "overloaded, retry later")
}

// labelView returns the label table as of now; nil serves unlabelled.
func (s *Server) labelView() []int {
	s.labelMu.RLock()
	defer s.labelMu.RUnlock()
	return s.labels
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.idx.Stats()
	ds := s.idx.Delta()
	WriteJSON(w, http.StatusOK, map[string]interface{}{
		"status":       "ok",
		"items":        s.idx.Len(),
		"version":      s.idx.Version(),
		"clusters":     st.NumClusters,
		"border_size":  st.BorderSize,
		"factor_nnz":   st.FactorNNZ,
		"exact":        s.idx.Exact(),
		"has_labels":   s.labelView() != nil,
		"precompute_s": st.PrecomputeTime().Seconds(),
		"delta_items":  ds.DeltaItems,
		"tombstones":   ds.Tombstones,
	})
}

// handleStats reports the per-endpoint counters as JSON. The legacy
// aggregate fields (queries_served, query_errors, mean_latency_us)
// cover the four search endpoints (the routes named search*); the
// per-endpoint map breaks every endpoint out separately, errors
// included — a single global error tally cannot tell "the cluster is
// failing inserts" from "one client sends junk vectors".
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	perEndpoint := make(map[string]interface{}, len(s.routes))
	var served, errs, latUS int64
	for _, rt := range s.routes {
		req := rt.requests.Load()
		eerr := rt.errors.Load()
		lat := rt.latUS.Load()
		mean := int64(0)
		if req > 0 {
			mean = lat / req
		}
		perEndpoint[rt.name] = map[string]interface{}{
			"requests":        req,
			"errors":          eerr,
			"mean_latency_us": mean,
		}
		if strings.HasPrefix(rt.name, "search") {
			served += req
			errs += eerr
			latUS += lat
		}
	}
	mean := int64(0)
	if served > 0 {
		mean = latUS / served
	}
	out := map[string]interface{}{
		"queries_served":  served,
		"query_errors":    errs,
		"mean_latency_us": mean,
		"shed":            s.met.shed.Load(),
		"endpoints":       perEndpoint,
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		out["cache"] = map[string]interface{}{
			"hits":      s.met.cacheHits.Load(),
			"misses":    s.met.cacheMisses.Load(),
			"evictions": cs.Evictions,
			"entries":   cs.Entries,
			"bytes":     cs.Bytes,
		}
	}
	WriteJSON(w, http.StatusOK, out)
}

// handleInsert adds one point online (POST {"vector":[...]}); the new
// item competes in every subsequent search.
func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req InsertRequest
	if err := ReadJSON(w, r, &req); err != nil {
		RejectBody(w, err, "bad JSON: "+err.Error())
		return
	}
	s.mutateMu.Lock()
	baseBefore := s.idx.Delta().BaseItems
	id, err := s.idx.Insert(req.Vector)
	if err != nil {
		s.mutateMu.Unlock()
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	// One post-insert snapshot serves the check below and the response.
	ds := s.idx.Delta()
	if ds.BaseItems != baseBefore {
		// The insert auto-compacted (AutoCompactFraction, e.g. restored
		// from a loaded index's build config). If deletions were folded
		// in, ids were renumbered and the label table is stale.
		s.dropLabelsAfterRenumber()
	}
	s.mutateMu.Unlock()
	WriteJSON(w, http.StatusOK, InsertReply{
		DeltaItems: ds.DeltaItems,
		ID:         id,
		Items:      s.idx.Len(),
		Version:    s.idx.Version(),
	})
}

// handleDelete tombstones one item (POST {"id":17}).
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req DeleteRequest
	if err := ReadJSON(w, r, &req); err != nil || req.ID == nil {
		RejectBody(w, err, "body must be {\"id\": <int>}")
		return
	}
	s.mutateMu.Lock()
	isBase := *req.ID < s.idx.Delta().BaseItems
	err := s.idx.Delete(*req.ID)
	if err == nil && isBase {
		// Only a base delete will shift ids at the next compaction;
		// deleting a delta item leaves base ids 0..n-1 untouched, so
		// the label table stays aligned.
		s.labelMu.Lock()
		s.deleted = true
		s.labelMu.Unlock()
	}
	s.mutateMu.Unlock()
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, map[string]interface{}{
		"deleted": *req.ID,
		"items":   s.idx.Len(),
		"version": s.idx.Version(),
	})
}

// dropLabelsAfterRenumber clears the label table after a compaction
// that folded base deletions in (those renumber ids); callers hold
// mutateMu.
func (s *Server) dropLabelsAfterRenumber() {
	s.labelMu.Lock()
	if s.deleted {
		s.labels = nil
		s.deleted = false
	}
	s.labelMu.Unlock()
}

// handleCompact folds the delta into a fresh base build (POST).
// Compaction after deletions renumbers ids, which orphans the
// dataset's label table — labels are dropped in that case rather than
// served misaligned.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	s.mutateMu.Lock()
	err := s.idx.Compact()
	if err == nil {
		s.dropLabelsAfterRenumber()
	}
	s.mutateMu.Unlock()
	if err != nil {
		WriteError(w, http.StatusConflict, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, map[string]interface{}{
		"items":   s.idx.Len(),
		"version": s.idx.Version(),
		"took_us": time.Since(t0).Microseconds(),
	})
}

func (s *Server) handleItem(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/item/")
	id, err := strconv.Atoi(idStr)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "item id must be an integer")
		return
	}
	ids, weights, err := s.idx.Neighbors(id)
	if err != nil {
		WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	resp := ItemReply{Item: id, NeighborWeights: weights, Neighbors: ids}
	if labels := s.labelView(); id < len(labels) {
		resp.Label = &labels[id]
	}
	WriteJSON(w, http.StatusOK, resp)
}

// parseK parses the k query parameter: absent means the default of 10,
// while an explicit non-integer or non-positive value is rejected — a
// client that asked for 0 or -3 answers has a bug, and silently
// clamping it to 10 (the historical behaviour) hides it — and so is one
// past MaxK.
func parseK(raw string) (int, error) {
	if raw == "" {
		return 10, nil
	}
	k, err := strconv.Atoi(raw)
	if err != nil || k <= 0 {
		return 0, fmt.Errorf("k must be a positive integer, got %q", raw)
	}
	return k, CheckK(k)
}

// normalizeK applies the same rule to the JSON body field: 0 (absent)
// defaults, negative or past MaxK is rejected.
func normalizeK(k int) (int, error) {
	if k == 0 {
		return 10, nil
	}
	if k < 0 {
		return 0, fmt.Errorf("k must be a positive integer, got %d", k)
	}
	return k, CheckK(k)
}

// CheckK rejects a k past MaxK. Exported for the layers that parse their
// own k (the /dist/* routes), so the cap and its message exist once.
func CheckK(k int) error {
	if k > MaxK {
		return fmt.Errorf("k must be at most %d, got %d", MaxK, k)
	}
	return nil
}

// Request bodies are bounded by a fixed cap, 32 MiB: 64 vectors of
// 2¹⁴ components at 32 bytes of JSON each, far above a single d = 512
// query (~10 KB), so a client cannot make the server buffer an
// arbitrary amount of memory per connection. Bodies are read into
// jsonwire's pooled read buffers; on the cache-hit path the decode is
// most of the remaining work.
const maxBodyBytes = 32 << 20

// The work one request may ask for is bounded like its body. The engine
// clamps k to the corpus, so without MaxK one GET ranks and renders
// every item; without MaxBatchIDs one /search/batch runs as many
// queries as fit in a body while holding a single limiter slot. Fixed,
// like maxBodyBytes: no deployment in the tree needs another value.
const (
	// MaxK is the largest k any search route accepts.
	MaxK = 10000
	// MaxBatchIDs is the largest number of ids one POST /search/batch
	// may carry.
	MaxBatchIDs = 1024
)

// ReadJSON decodes a request body of at most maxBodyBytes into v: by
// v's own scanner when it has one and the body is in its canonical form
// (scan.go), by encoding/json otherwise — same values, and for a body
// neither accepts, encoding/json's error. Render a failure with
// RejectBody. Exported, like WriteError, for layers that add their own
// endpoints to this server.
func ReadJSON(w http.ResponseWriter, r *http.Request, v interface{}) error {
	buf := jsonwire.GetReadBuf()
	defer jsonwire.PutReadBuf(buf)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		return err
	}
	if sc, ok := v.(scannable); ok && sc.scanJSON(buf.Bytes()) {
		return nil
	}
	return json.Unmarshal(buf.Bytes(), v)
}

// RejectBody renders a request whose body could not be used: 413 when
// it ran past maxBodyBytes (err from ReadJSON), 400 with msg otherwise.
func RejectBody(w http.ResponseWriter, err error, msg string) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		WriteError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
		return
	}
	WriteError(w, http.StatusBadRequest, msg)
}

// WriteJSON renders v as the response body with the given status — the
// one encoder every JSON reply of this server, and of the layers that
// extend it, goes through.
func WriteJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The header is already out; nothing more to do than log.
		fmt.Println("serve: encoding response:", err)
	}
}

// WriteError renders the canonical error body — application/json,
// {"error": msg} — every endpoint of this server uses. Layers that
// extend the server with their own endpoints (e.g. the dist shard
// server) should render errors through it too, so clients parse one
// format across the whole surface and the Content-Type can never
// drift per path.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, ErrorReply{Error: msg})
}
