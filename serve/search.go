package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"mogul"
)

// The search path: version-stamped caching, backpressure, and the
// direct (unbatched) execution route.
//
// Every search endpoint runs the same pipeline:
//
//	parse -> cache lookup -> admission (limiter) -> execute -> cache fill
//
// The cache key encodes the query exactly (kind tag, k, and the binary
// payload — no hashing, so no collisions), and the stored entry is
// stamped with the index mutation version read BEFORE the search
// executes. A hit is served only while the stamp still equals the
// current version; any Insert/Delete/Compact bumps the version and
// thereby invalidates every cached entry at once. Reading the version
// before the search makes the stamp conservative: if a mutation lands
// mid-search the entry is stamped with the pre-mutation version and
// can never be served after the bump — cached answers are therefore
// always answers the current index would give.

// cacheEntry is one cached ranking with its version stamp. The answer
// rows are stored fully rendered (labels applied, JSON encoded): a hit
// then skips not only the search but the whole serialization path,
// which is where most of a cached request's time would otherwise go.
// Caching rendered labels is sound because the label table only ever
// changes together with a version bump (labels drop when a compaction
// renumbers ids — a mutation), so a stamped entry can never outlive
// its label view.
type cacheEntry struct {
	version uint64
	answers json.RawMessage
	// info preserves the work counters for /search responses so a
	// cached response is byte-identical to the one the search produced.
	info mogul.SearchInfo
}

// entryOverhead approximates the fixed per-entry cost (map slot, list
// links, slice headers) charged to the byte budget on top of key and
// rendered payload.
const entryOverhead = 96

// Cache keys: a kind byte, k, then the exact binary query payload.
// Exact bytes, not a hash — a 64-bit digest would make one-in-2^32
// traffic pairs silently share answers, and the whole point of the
// version stamp is that cached answers are *provably* the live ones.

func keyID(id, k int) string {
	var b [1 + 2*binary.MaxVarintLen64]byte
	b[0] = 'i'
	n := 1 + binary.PutVarint(b[1:], int64(k))
	n += binary.PutVarint(b[n:], int64(id))
	return string(b[:n])
}

func keyVector(v mogul.Vector, k int) string {
	b := make([]byte, 0, 1+binary.MaxVarintLen64+8*len(v))
	b = append(b, 'v')
	b = binary.AppendVarint(b, int64(k))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return string(b)
}

// vectorGroupKey is keyVector without k: the batch executor groups
// identical in-flight vectors across different k values (the ranking
// for a smaller k is a prefix of the larger one).
func vectorGroupKey(v mogul.Vector) string {
	b := make([]byte, 0, 8*len(v))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return string(b)
}

func keySet(ids []int, k int) string {
	b := make([]byte, 0, 1+(len(ids)+1)*binary.MaxVarintLen64)
	b = append(b, 's')
	b = binary.AppendVarint(b, int64(k))
	for _, id := range ids {
		b = binary.AppendVarint(b, int64(id))
	}
	return string(b)
}

// cacheGet returns a cached entry if it is present AND stamped with
// the index's current version. A version mismatch is left in place —
// it will age out by LRU — but not served, and counts as a miss in
// the serving-layer counters (the LRU's own counters measure
// residency, not validity, so hit ratios are read from s.met).
func (s *Server) cacheGet(key string) (cacheEntry, bool) {
	if s.cache == nil {
		return cacheEntry{}, false
	}
	e, ok := s.cache.Get(key)
	if !ok || e.version != s.idx.Version() {
		s.met.cacheMisses.Add(1)
		return cacheEntry{}, false
	}
	s.met.cacheHits.Add(1)
	return e, true
}

// cacheSet renders and stores a result under the version read before
// the search; it returns the rendered rows so the miss path can reuse
// them in its own response.
func (s *Server) cacheSet(key string, ver uint64, res []mogul.Result, info mogul.SearchInfo) json.RawMessage {
	rendered, err := json.Marshal(s.toAnswers(res))
	if err != nil {
		return nil
	}
	if s.cache != nil {
		s.cache.Set(key, cacheEntry{version: ver, answers: rendered, info: info},
			int64(len(key))+int64(len(rendered))+entryOverhead)
	}
	return rendered
}

// errShed reports that admission was refused because the wait queue is
// full; errClosed that the server is shutting down.
var (
	errShed   = errors.New("serve: overloaded")
	errClosed = errors.New("serve: server closed")
)

// limiter is the backpressure gate: a semaphore bounds executing
// search work, a queue-depth counter bounds waiting work, and
// everything beyond both is shed immediately — the fail-fast shape
// that keeps an overloaded server answering (with 429s) instead of
// accumulating goroutines until latency collapses.
type limiter struct {
	sem      chan struct{}
	waiting  atomic.Int64
	maxQueue int64
}

// acquire takes an execution slot, waiting in the bounded queue if the
// semaphore is full. It returns errShed when the queue is full too,
// and ctx.Err() when the caller's request is cancelled while waiting.
func (l *limiter) acquire(ctx context.Context) error {
	select {
	case l.sem <- struct{}{}:
		return nil
	default:
	}
	if l.waiting.Add(1) > l.maxQueue {
		l.waiting.Add(-1)
		return errShed
	}
	defer l.waiting.Add(-1)
	select {
	case l.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (l *limiter) release() { <-l.sem }

// runDirect executes one search under the limiter on a pooled query
// engine, returning the results and the version stamp they belong to.
func (s *Server) runDirect(ctx context.Context, fn func(q mogul.Querier) error) error {
	if err := s.lim.acquire(ctx); err != nil {
		return err
	}
	defer s.lim.release()
	sr := s.searcher()
	err := fn(sr)
	s.putSearcher(sr)
	return err
}

// admissionError maps limiter/batcher failures to HTTP responses;
// returns true if it wrote one.
func (s *Server) admissionError(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, errShed):
		s.shed(w)
		return true
	case errors.Is(err, errClosed):
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return true
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client went away while queued; 503 documents the outcome
		// for any middlebox still listening.
		writeError(w, http.StatusServiceUnavailable, "request cancelled")
		return true
	}
	return false
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	id, err := atoiQuery(r, "id")
	if err != nil {
		writeError(w, http.StatusBadRequest, "id must be an integer")
		return
	}
	k, err := parseK(r.URL.Query().Get("k"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	t0 := time.Now()
	key := keyID(id, k)
	if e, ok := s.cacheGet(key); ok {
		writeJSON(w, http.StatusOK, searchResponse{
			Query:    id,
			K:        k,
			TookUS:   time.Since(t0).Microseconds(),
			Answers:  e.answers,
			Exact:    s.idx.Exact(),
			Cached:   true,
			Pruned:   e.info.ClustersPruned,
			Scanned:  e.info.ClustersScanned,
			Computed: e.info.ScoresComputed,
		})
		return
	}
	var (
		res  []mogul.Result
		info *mogul.SearchInfo
		ver  uint64
	)
	aerr := s.runDirect(r.Context(), func(q mogul.Querier) error {
		ver = s.idx.Version()
		var err error
		res, info, err = q.TopKWithInfo(id, k)
		return err
	})
	if s.admissionError(w, aerr) {
		return
	}
	if aerr != nil {
		writeError(w, http.StatusBadRequest, aerr.Error())
		return
	}
	rendered := s.cacheSet(key, ver, res, *info)
	writeJSON(w, http.StatusOK, searchResponse{
		Query:    id,
		K:        k,
		TookUS:   time.Since(t0).Microseconds(),
		Answers:  rendered,
		Exact:    s.idx.Exact(),
		Pruned:   info.ClustersPruned,
		Scanned:  info.ClustersScanned,
		Computed: info.ScoresComputed,
	})
}

func (s *Server) handleSearchVector(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req struct {
		Vector []float64 `json:"vector"`
		K      int       `json:"k"`
	}
	if err := ReadJSON(w, r, &req); err != nil {
		RejectBody(w, err, "bad JSON: "+err.Error())
		return
	}
	k, err := normalizeK(req.K)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	t0 := time.Now()
	key := keyVector(req.Vector, k)
	if e, ok := s.cacheGet(key); ok {
		writeJSON(w, http.StatusOK, searchResponse{
			Query:   "vector",
			K:       k,
			TookUS:  time.Since(t0).Microseconds(),
			Answers: e.answers,
			Exact:   s.idx.Exact(),
			Cached:  true,
		})
		return
	}
	var rendered json.RawMessage
	var aerr error
	if s.bat != nil {
		rendered, aerr = s.bat.do(r.Context(), req.Vector, k, key)
	} else {
		var res []mogul.Result
		var ver uint64
		aerr = s.runDirect(r.Context(), func(q mogul.Querier) error {
			ver = s.idx.Version()
			var err error
			res, err = q.TopKVector(req.Vector, k)
			return err
		})
		if aerr == nil {
			rendered = s.cacheSet(key, ver, res, mogul.SearchInfo{})
		}
	}
	if s.admissionError(w, aerr) {
		return
	}
	if aerr != nil {
		writeError(w, http.StatusBadRequest, aerr.Error())
		return
	}
	writeJSON(w, http.StatusOK, searchResponse{
		Query:   "vector",
		K:       k,
		TookUS:  time.Since(t0).Microseconds(),
		Answers: rendered,
		Exact:   s.idx.Exact(),
	})
}

func (s *Server) handleSearchSet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req struct {
		IDs []int `json:"ids"`
		K   int   `json:"k"`
	}
	if err := ReadJSON(w, r, &req); err != nil {
		RejectBody(w, err, "bad JSON: "+err.Error())
		return
	}
	k, err := normalizeK(req.K)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	t0 := time.Now()
	key := keySet(req.IDs, k)
	if e, ok := s.cacheGet(key); ok {
		writeJSON(w, http.StatusOK, searchResponse{
			Query:   req.IDs,
			K:       k,
			TookUS:  time.Since(t0).Microseconds(),
			Answers: e.answers,
			Exact:   s.idx.Exact(),
			Cached:  true,
		})
		return
	}
	var (
		res []mogul.Result
		ver uint64
	)
	aerr := s.runDirect(r.Context(), func(q mogul.Querier) error {
		ver = s.idx.Version()
		var err error
		res, err = q.TopKSet(req.IDs, k)
		return err
	})
	if s.admissionError(w, aerr) {
		return
	}
	if aerr != nil {
		writeError(w, http.StatusBadRequest, aerr.Error())
		return
	}
	rendered := s.cacheSet(key, ver, res, mogul.SearchInfo{})
	writeJSON(w, http.StatusOK, searchResponse{
		Query:   req.IDs,
		K:       k,
		TookUS:  time.Since(t0).Microseconds(),
		Answers: rendered,
		Exact:   s.idx.Exact(),
	})
}

func (s *Server) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req struct {
		IDs []int `json:"ids"`
		K   int   `json:"k"`
	}
	if err := ReadJSON(w, r, &req); err != nil {
		RejectBody(w, err, "bad JSON: "+err.Error())
		return
	}
	if len(req.IDs) == 0 {
		writeError(w, http.StatusBadRequest, "ids must be non-empty")
		return
	}
	k, err := normalizeK(req.K)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// One bulk request holds one execution slot: TopKBatch parallelizes
	// internally, so admitting the call — not each of its queries — is
	// what the semaphore meaningfully bounds.
	if aerr := s.lim.acquire(r.Context()); aerr != nil {
		s.admissionError(w, aerr)
		return
	}
	t0 := time.Now()
	batch := s.idx.TopKBatch(req.IDs, k, 0)
	s.lim.release()
	took := time.Since(t0)
	type batchEntry struct {
		Query   int      `json:"query"`
		Answers []answer `json:"answers,omitempty"`
		Error   string   `json:"error,omitempty"`
	}
	entries := make([]batchEntry, len(batch))
	for i, br := range batch {
		entries[i] = batchEntry{Query: br.Query}
		if br.Err != nil {
			entries[i].Error = br.Err.Error()
			continue
		}
		entries[i].Answers = s.toAnswers(br.Results)
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"k":       k,
		"took_us": took.Microseconds(),
		"results": entries,
	})
}

// atoiQuery parses an integer query parameter.
func atoiQuery(r *http.Request, name string) (int, error) {
	return strconv.Atoi(r.URL.Query().Get(name))
}
