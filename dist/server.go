package dist

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"mogul"
	"mogul/internal/jsonwire"
	"mogul/serve"
)

// ShardServer is one shard's serve.Server — every serve route, with its
// caching, batching, backpressure and metrics — plus the /dist/* routes
// the distributed layer is built from, mounted on the same route table
// (so they are counted in /metrics and /stats like any other route):
//
//	GET  /dist/info              -> Backend.InfoCtx
//	GET  /dist/owner?id=N&k=K    -> Backend.OwnerSearch
//	POST /dist/vector            -> Backend.VectorSearch
//	POST /dist/set               -> Backend.SetSearch
//	GET  /dist/alive             -> Backend.AliveMap
//	GET  /dist/bound             -> Backend.BoundCtx; 404 when the
//	                                engine derives no probe bound
//	GET  /dist/log?since=V       -> replication log tail past cursor V
//	                                (binary, mogul.WriteLogEntries);
//	                                410 Gone once truncated past V
//	GET  /dist/snapshot          -> full index stream with the matching
//	                                X-Mogul-Version header
//	POST /dist/truncate          -> {"up_to":V}: drop acknowledged log
//
// The first six are the wire form of one Backend method each: decode
// the request, call the method on a LocalShard over the index, encode
// what it returned — the image of what Client does from the other side,
// so the remote shard cannot drift from the in-process one. The request
// and reply types are in wire.go and serve/wire.go (docs/SERVING.md,
// "Routes and wire"); the three search replies are written in one pass
// by appendReply, every other reply by serve.WriteJSON.
type ShardServer struct {
	*serve.Server
	ix    ShardIndex
	local LocalShard
}

// versionHeader carries the shard's mutation version on binary
// responses that cannot embed it in a JSON body.
const versionHeader = "X-Mogul-Version"

// NewShardServer wraps ix in the serving layer plus the /dist/*
// surface. Close the returned server on shutdown (the index stays
// open).
func NewShardServer(ix ShardIndex, opts serve.Options) *ShardServer {
	s := &ShardServer{Server: serve.New(ix, opts), ix: ix, local: LocalShard{Ix: ix}}
	s.Handle(http.MethodGet, "/dist/info", "dist_info", s.handleInfo)
	s.Handle(http.MethodGet, "/dist/owner", "dist_owner", s.handleOwner)
	s.Handle(http.MethodPost, "/dist/vector", "dist_vector", s.handleVector)
	s.Handle(http.MethodPost, "/dist/set", "dist_set", s.handleSet)
	s.Handle(http.MethodGet, "/dist/log", "dist_log", s.handleLog)
	s.Handle(http.MethodGet, "/dist/snapshot", "dist_snapshot", s.handleSnapshot)
	s.Handle(http.MethodGet, "/dist/alive", "dist_alive", s.handleAlive)
	s.Handle(http.MethodGet, "/dist/bound", "dist_bound", s.handleBound)
	s.Handle(http.MethodPost, "/dist/truncate", "dist_truncate", s.handleTruncate)
	return s
}

// Index returns the served shard engine (the replicator applies log
// entries to it directly on follower nodes).
func (s *ShardServer) Index() ShardIndex { return s.ix }

// reply renders a Backend call's outcome: v on success, the error as a
// 400 otherwise (every failure of these calls is the request's).
func reply(w http.ResponseWriter, v interface{}, err error) {
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	serve.WriteJSON(w, http.StatusOK, v)
}

// replySearch renders a search call's outcome: the error as a 400, or
// the reply appendReply writes into a pooled buffer, sent in one Write
// of known length. A value JSON cannot carry (a NaN or ±Inf score,
// vector element or affinity) is the shard's fault and answers 500,
// naming it, instead of a 200 whose body never came.
func replySearch(w http.ResponseWriter, owner bool, ver uint64, res []mogul.Result, vec []float64, aff float64, err error) {
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	buf := jsonwire.GetBuf()
	b, err := appendReply(*buf, owner, ver, res, vec, aff)
	if err != nil {
		jsonwire.PutBuf(buf, b)
		serve.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	jsonwire.WriteReply(w, buf, b)
}

// readBody decodes a /dist request body into v and checks the k it
// carried; on failure it has rendered the 4xx and returns false.
func readBody(w http.ResponseWriter, r *http.Request, v interface{}, k *int) bool {
	if err := serve.ReadJSON(w, r, v); err != nil {
		serve.RejectBody(w, err, "bad JSON: "+err.Error())
		return false
	}
	return checkK(w, *k, nil)
}

// checkK renders the 400 for a k that did not parse, is not positive, or
// is past serve.MaxK, and reports whether k is usable.
func checkK(w http.ResponseWriter, k int, parseErr error) bool {
	err := serve.CheckK(k)
	if parseErr != nil || k <= 0 {
		err = errors.New("k must be a positive integer")
	}
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, err.Error())
	}
	return err == nil
}

func (s *ShardServer) handleInfo(w http.ResponseWriter, r *http.Request) {
	info, err := s.local.InfoCtx(r.Context())
	reply(w, info, err)
}

func (s *ShardServer) handleOwner(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	id, err := strconv.Atoi(q.Get("id"))
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, "id must be an integer")
		return
	}
	k, err := strconv.Atoi(q.Get("k"))
	if !checkK(w, k, err) {
		return
	}
	ver := s.ix.Version()
	res, qvec, aff, err := s.local.OwnerSearch(r.Context(), id, k)
	replySearch(w, true, ver, res, qvec, aff, err)
}

func (s *ShardServer) handleVector(w http.ResponseWriter, r *http.Request) {
	var req serve.VectorQuery
	if !readBody(w, r, &req, &req.K) {
		return
	}
	ver := s.ix.Version()
	res, aff, err := s.local.VectorSearch(r.Context(), req.Vector, req.K)
	replySearch(w, false, ver, res, nil, aff, err)
}

func (s *ShardServer) handleSet(w http.ResponseWriter, r *http.Request) {
	var req serve.SetQuery
	if !readBody(w, r, &req, &req.K) {
		return
	}
	if req.Weight <= 0 {
		serve.WriteError(w, http.StatusBadRequest, "weight must be positive")
		return
	}
	ver := s.ix.Version()
	res, err := s.local.SetSearch(r.Context(), req.IDs, req.Weight, req.K)
	replySearch(w, false, ver, res, nil, 0, err)
}

func (s *ShardServer) handleAlive(w http.ResponseWriter, r *http.Request) {
	space, dead, err := s.local.AliveMap(r.Context())
	reply(w, aliveReply{Dead: dead, IDSpace: space, Version: s.ix.Version()}, err)
}

func (s *ShardServer) handleBound(w http.ResponseWriter, r *http.Request) {
	b, err := s.local.BoundCtx(r.Context())
	switch {
	case err != nil:
		reply(w, nil, err)
	case b == nil:
		serve.WriteError(w, http.StatusNotFound, "the shard's engine derives no probe bound")
	default:
		buf := jsonwire.GetBuf()
		body, err := appendBound(*buf, b)
		if err != nil {
			jsonwire.PutBuf(buf, body)
			serve.WriteError(w, http.StatusInternalServerError, err.Error())
			return
		}
		jsonwire.WriteReply(w, buf, body)
	}
}

func (s *ShardServer) handleLog(w http.ResponseWriter, r *http.Request) {
	since, err := strconv.ParseUint(r.URL.Query().Get("since"), 10, 64)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, "since must be a version cursor")
		return
	}
	entries, ok := s.ix.EntriesSince(since)
	if !ok {
		// The follower's cursor predates the retained log: it cannot
		// catch up incrementally and must bootstrap from /dist/snapshot.
		// 410 is the contract for "gone for good", distinct from any
		// transient failure a client would retry.
		serve.WriteError(w, http.StatusGone, fmt.Sprintf("log truncated past version %d; bootstrap from snapshot", since))
		return
	}
	var buf bytes.Buffer
	if err := mogul.WriteLogEntries(&buf, entries); err != nil {
		serve.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(versionHeader, strconv.FormatUint(s.ix.Version(), 10))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

func (s *ShardServer) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	// A snapshot is only a valid replication bootstrap when the version
	// it is stamped with matches the serialized state exactly, so the
	// pair is captured under a version double-read: if a mutation lands
	// mid-save, re-save. Mutations are rare relative to save time only
	// in pathological loops, so a bounded number of retries suffices;
	// persistent interference reports 503 and the follower retries.
	const attempts = 5
	var buf bytes.Buffer
	var ver uint64
	for i := 0; ; i++ {
		ver = s.ix.Version()
		buf.Reset()
		if err := s.ix.Save(&buf); err != nil {
			serve.WriteError(w, http.StatusInternalServerError, err.Error())
			return
		}
		if s.ix.Version() == ver {
			break
		}
		if i == attempts-1 {
			serve.WriteError(w, http.StatusServiceUnavailable, "index mutating too fast to snapshot consistently")
			return
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(versionHeader, strconv.FormatUint(ver, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

func (s *ShardServer) handleTruncate(w http.ResponseWriter, r *http.Request) {
	var req truncateRequest
	if err := serve.ReadJSON(w, r, &req); err != nil {
		serve.RejectBody(w, err, "bad JSON: "+err.Error())
		return
	}
	s.ix.TruncateEntries(req.UpTo)
	serve.WriteJSON(w, http.StatusOK, map[string]interface{}{"log_len": s.ix.LogLen()})
}
