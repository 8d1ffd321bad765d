package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"mogul"
	"mogul/internal/jsonwire"
)

// The search path: version-stamped caching, backpressure, and answer,
// the one pipeline every search endpoint runs after parsing its request
// into a query.
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
// rows are stored fully rendered (labels applied, JSON encoded by
// appendRows): a hit then skips not only the search but the rendering,
// and what is left of it is the envelope appended around a copy of
// these bytes. Caching rendered labels is sound because the label table
// only ever changes together with a version bump (labels drop when a
// compaction renumbers ids — a mutation), so a stamped entry can never
// outlive its label view.
type cacheEntry struct {
	version uint64
	answers []byte
	// info preserves the work counters for /search responses so a
	// cached response is byte-identical to the one the search produced.
	info mogul.SearchInfo
}

// entryOverhead approximates the fixed per-entry cost (map slot, list
// links, slice headers) charged to the byte budget on top of key and
// rendered payload.
const entryOverhead = 96

// cacheShards is the result cache's lock-shard count.
const cacheShards = 16

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

// cacheSet renders a result and stores it under the version read before
// the search; it returns the entry so the miss path answers from the
// same bytes a later hit will. A result that cannot be rendered
// (errNonFiniteScore) is an error and is not stored.
func (s *Server) cacheSet(key string, ver uint64, res []mogul.Result, info mogul.SearchInfo) (cacheEntry, error) {
	// Rendered in a pooled buffer and kept as an exact-size copy, so the
	// bytes charged to the cache budget are the bytes held.
	buf := jsonwire.GetBuf()
	rows, err := appendRows(*buf, res, s.labelView())
	rendered := bytes.Clone(rows)
	jsonwire.PutBuf(buf, rows)
	if err != nil {
		return cacheEntry{}, err
	}
	e := cacheEntry{version: ver, answers: rendered, info: info}
	if s.cache != nil {
		s.cache.Set(key, e, int64(len(key))+int64(len(rendered))+entryOverhead)
	}
	return e, nil
}

// errShed reports that admission was refused because the wait queue is
// full.
var errShed = errors.New("serve: overloaded")

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

// query is one parsed search request: what the three search handlers
// reduce their input to and answer runs.
type query struct {
	// key builds the exact cache key (keyID, keyVector or keySet); answer
	// calls it only when there is a cache to look in.
	key func() string
	// echo is the envelope's "query" field: an int id, a []int of ids, or
	// a string that is JSON as written between quotes ("vector").
	echo interface{}
	k    int
	// run is the engine call; info is nil for the kinds that report no
	// work counters.
	run func(mogul.Querier) (res []mogul.Result, info *mogul.SearchInfo, err error)
}

// answer is the search pipeline, the same for every kind of query:
//
//	cache lookup -> admission -> version stamp -> run -> cache fill -> envelope
//
// Admission is the limiter; the answer rows come back rendered, and
// the envelope is the same on a hit and on a miss.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, q query) {
	t0 := time.Now()
	// The key of a d = 512 query is 4 KB; with the cache off nothing
	// reads it.
	var key string
	if s.cache != nil {
		key = q.key()
	}
	e, hit := s.cacheGet(key)
	if !hit {
		var err error
		if e, err = s.runDirect(r.Context(), q, key); err != nil {
			s.searchError(w, err)
			return
		}
	}
	buf := jsonwire.GetBuf()
	jsonwire.WriteReply(w, buf, appendSearchReply(*buf, q, time.Since(t0).Microseconds(), e, s.idx.Exact(), hit))
}

// runDirect executes one search under the limiter on a pooled query
// engine and fills the cache under key, stamping the entry with the
// version read before the search ran.
func (s *Server) runDirect(ctx context.Context, q query, key string) (cacheEntry, error) {
	if err := s.lim.acquire(ctx); err != nil {
		return cacheEntry{}, err
	}
	defer s.lim.release()
	sr := s.searcher()
	ver := s.idx.Version()
	res, info, err := q.run(sr)
	s.putSearcher(sr)
	if err != nil {
		return cacheEntry{}, err
	}
	if info == nil {
		info = &mogul.SearchInfo{}
	}
	return s.cacheSet(key, ver, res, *info)
}

// searchError renders a failed search: the limiter's refusals by what
// they mean, a result the writer could not render as the server's
// fault, anything else as the engine rejecting the query.
func (s *Server) searchError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errShed):
		s.shed(w)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client went away while queued; 503 documents the outcome
		// for any middlebox still listening.
		WriteError(w, http.StatusServiceUnavailable, "request cancelled")
	case errors.Is(err, errNonFiniteScore):
		WriteError(w, http.StatusInternalServerError, err.Error())
	default:
		WriteError(w, http.StatusBadRequest, err.Error())
	}
}

// readQuery decodes a search body into v and resolves *k, the k field
// inside v, to its default; on failure it has rendered the 4xx and
// returns false.
func readQuery(w http.ResponseWriter, r *http.Request, v interface{}, k *int) bool {
	err := ReadJSON(w, r, v)
	if err != nil {
		RejectBody(w, err, "bad JSON: "+err.Error())
		return false
	}
	if *k, err = normalizeK(*k); err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return false
	}
	return true
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	id, err := strconv.Atoi(params.Get("id"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "id must be an integer")
		return
	}
	k, err := parseK(params.Get("k"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.answer(w, r, query{echo: id, k: k,
		key: func() string { return keyID(id, k) },
		run: func(q mogul.Querier) ([]mogul.Result, *mogul.SearchInfo, error) {
			return q.TopKWithInfo(id, k)
		}})
}

func (s *Server) handleSearchVector(w http.ResponseWriter, r *http.Request) {
	var req VectorQuery
	if !readQuery(w, r, &req, &req.K) {
		return
	}
	s.answer(w, r, query{echo: "vector", k: req.K,
		key: func() string { return keyVector(req.Vector, req.K) },
		run: func(q mogul.Querier) ([]mogul.Result, *mogul.SearchInfo, error) {
			res, err := q.TopKVector(req.Vector, req.K)
			return res, nil, err
		}})
}

func (s *Server) handleSearchSet(w http.ResponseWriter, r *http.Request) {
	var req SetQuery
	if !readQuery(w, r, &req, &req.K) {
		return
	}
	s.answer(w, r, query{echo: req.IDs, k: req.K,
		key: func() string { return keySet(req.IDs, req.K) },
		run: func(q mogul.Querier) ([]mogul.Result, *mogul.SearchInfo, error) {
			res, err := q.TopKSet(req.IDs, req.K)
			return res, nil, err
		}})
}

func (s *Server) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	var req SetQuery
	if !readQuery(w, r, &req, &req.K) {
		return
	}
	if len(req.IDs) == 0 {
		WriteError(w, http.StatusBadRequest, "ids must be non-empty")
		return
	}
	if len(req.IDs) > MaxBatchIDs {
		WriteError(w, http.StatusBadRequest, fmt.Sprintf("ids must number at most %d, got %d", MaxBatchIDs, len(req.IDs)))
		return
	}
	// One bulk request holds one execution slot: TopKBatch parallelizes
	// internally, so admitting the call — not each of its queries — is
	// what the semaphore meaningfully bounds.
	if err := s.lim.acquire(r.Context()); err != nil {
		s.searchError(w, err)
		return
	}
	t0 := time.Now()
	batch := s.idx.TopKBatch(req.IDs, req.K, 0)
	s.lim.release()
	took := time.Since(t0)
	buf := jsonwire.GetBuf()
	jsonwire.WriteReply(w, buf, appendBatchReply(*buf, req.K, took.Microseconds(), batch, s.labelView()))
}
