package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"mogul"
	"mogul/serve"
)

// ShardServer exposes one shard's full surface over HTTP: every serve
// endpoint (search paths with caching/batching/backpressure,
// mutations, metrics) plus the /dist/* endpoints the distributed
// layer is built from:
//
//	GET  /dist/info              -> shard state (items, version, exact,
//	                                stats, delta, log length)
//	GET  /dist/owner?id=N&k=K    -> owner search: answers + the query
//	                                item's vector + the shard's own
//	                                affinity to it, in one round trip
//	POST /dist/vector            -> {"vector":[...],"k":K}: answers +
//	                                the shard's kernel affinity
//	POST /dist/set               -> {"ids":[...],"weight":w,"k":K}:
//	                                weighted multi-seed search
//	GET  /dist/log?since=V       -> replication log tail past cursor V
//	                                (binary, mogul.WriteLogEntries);
//	                                410 Gone once truncated past V
//	GET  /dist/snapshot          -> full index stream with the matching
//	                                X-Mogul-Version header
//	GET  /dist/alive             -> id space + dead ids (the liveness
//	                                map a coordinator compaction needs)
//	POST /dist/truncate          -> {"up_to":V}: drop acknowledged log
//
// Search answers carry float64 scores through JSON, which Go encodes
// in shortest-round-trip form — scores survive the wire bit-exactly,
// so a coordinator's merged ranking can be pinned against the
// in-process oracle.
type ShardServer struct {
	ix  *mogul.Index
	srv *serve.Server
	mux *http.ServeMux
}

// versionHeader carries the shard's mutation version on binary
// responses that cannot embed it in a JSON body.
const versionHeader = "X-Mogul-Version"

// NewShardServer wraps ix in the serving layer plus the /dist/*
// surface. Close the returned server on shutdown (it closes the inner
// serve.Server; the index stays open).
func NewShardServer(ix *mogul.Index, opts serve.Options) *ShardServer {
	s := &ShardServer{ix: ix, srv: serve.New(ix, opts), mux: http.NewServeMux()}
	s.mux.HandleFunc("/dist/info", s.handleInfo)
	s.mux.HandleFunc("/dist/owner", s.handleOwner)
	s.mux.HandleFunc("/dist/vector", s.handleVector)
	s.mux.HandleFunc("/dist/set", s.handleSet)
	s.mux.HandleFunc("/dist/log", s.handleLog)
	s.mux.HandleFunc("/dist/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("/dist/alive", s.handleAlive)
	s.mux.HandleFunc("/dist/truncate", s.handleTruncate)
	s.mux.Handle("/", s.srv)
	return s
}

func (s *ShardServer) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close releases the inner serve.Server's background machinery.
func (s *ShardServer) Close() { s.srv.Close() }

// Index returns the served shard index (the replicator applies log
// entries to it directly on follower nodes).
func (s *ShardServer) Index() *mogul.Index { return s.ix }

// wireResult is one answer row on the /dist wire: ids are SHARD-LOCAL
// (the coordinator owns the global remap), scores bit-exact float64.
type wireResult struct {
	Item  int     `json:"item"`
	Score float64 `json:"score"`
}

func toWire(res []mogul.Result) []wireResult {
	out := make([]wireResult, len(res))
	for i, r := range res {
		out[i] = wireResult{Item: r.Node, Score: r.Score}
	}
	return out
}

func fromWire(res []wireResult) []mogul.Result {
	out := make([]mogul.Result, len(res))
	for i, r := range res {
		out[i] = mogul.Result{Node: r.Item, Score: r.Score}
	}
	return out
}

// ownerResponse answers /dist/owner: the in-database ranking plus the
// query item's stored vector and the owning shard's affinity to it —
// everything a coordinator needs before probing the other shards.
type ownerResponse struct {
	Version  uint64       `json:"version"`
	Answers  []wireResult `json:"answers"`
	Vector   []float64    `json:"vector"`
	Affinity float64      `json:"affinity"`
}

// vectorResponse answers /dist/vector and /dist/set.
type vectorResponse struct {
	Version  uint64       `json:"version"`
	Answers  []wireResult `json:"answers"`
	Affinity float64      `json:"affinity,omitempty"`
}

func (s *ShardServer) handleInfo(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		distError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, Info{
		Items:   s.ix.Len(),
		Version: s.ix.Version(),
		Exact:   s.ix.Exact(),
		IDSpace: s.ix.IDSpace(),
		LogLen:  s.ix.LogLen(),
		Stats:   s.ix.Stats(),
		Delta:   s.ix.Delta(),
	})
}

// Info is a shard's state snapshot (/dist/info).
type Info struct {
	Items   int              `json:"items"`
	Version uint64           `json:"version"`
	Exact   bool             `json:"exact"`
	IDSpace int              `json:"id_space"`
	LogLen  int              `json:"log_len"`
	Stats   mogul.Stats      `json:"stats"`
	Delta   mogul.DeltaStats `json:"delta"`
}

func (s *ShardServer) handleOwner(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		distError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	q := r.URL.Query()
	id, err := strconv.Atoi(q.Get("id"))
	if err != nil {
		distError(w, http.StatusBadRequest, "id must be an integer")
		return
	}
	k, err := strconv.Atoi(q.Get("k"))
	if err != nil || k <= 0 {
		distError(w, http.StatusBadRequest, "k must be a positive integer")
		return
	}
	// The version is read before the search so the stamp is
	// conservative: a mutation landing mid-search yields a stale stamp,
	// never a stamp claiming post-mutation answers.
	ver := s.ix.Version()
	res, qvec, aff, err := s.ix.TopKWithVector(id, k)
	if err != nil {
		distError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ownerResponse{
		Version:  ver,
		Answers:  toWire(res),
		Vector:   qvec,
		Affinity: aff,
	})
}

func (s *ShardServer) handleVector(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		distError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req struct {
		Vector []float64 `json:"vector"`
		K      int       `json:"k"`
	}
	if err := serve.ReadJSON(w, r, &req); err != nil {
		serve.RejectBody(w, err, "bad JSON: "+err.Error())
		return
	}
	if req.K <= 0 {
		distError(w, http.StatusBadRequest, "k must be a positive integer")
		return
	}
	ver := s.ix.Version()
	res, aff, err := s.ix.TopKVectorWithAffinity(req.Vector, req.K)
	if err != nil {
		distError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, vectorResponse{Version: ver, Answers: toWire(res), Affinity: aff})
}

func (s *ShardServer) handleSet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		distError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req struct {
		IDs    []int   `json:"ids"`
		Weight float64 `json:"weight"`
		K      int     `json:"k"`
	}
	if err := serve.ReadJSON(w, r, &req); err != nil {
		serve.RejectBody(w, err, "bad JSON: "+err.Error())
		return
	}
	if req.K <= 0 {
		distError(w, http.StatusBadRequest, "k must be a positive integer")
		return
	}
	if req.Weight <= 0 {
		distError(w, http.StatusBadRequest, "weight must be positive")
		return
	}
	ver := s.ix.Version()
	res, err := s.ix.TopKSetWeighted(req.IDs, req.Weight, req.K)
	if err != nil {
		distError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, vectorResponse{Version: ver, Answers: toWire(res)})
}

func (s *ShardServer) handleLog(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		distError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	since, err := strconv.ParseUint(r.URL.Query().Get("since"), 10, 64)
	if err != nil {
		distError(w, http.StatusBadRequest, "since must be a version cursor")
		return
	}
	entries, ok := s.ix.EntriesSince(since)
	if !ok {
		// The follower's cursor predates the retained log: it cannot
		// catch up incrementally and must bootstrap from /dist/snapshot.
		// 410 is the contract for "gone for good", distinct from any
		// transient failure a client would retry.
		distError(w, http.StatusGone, fmt.Sprintf("log truncated past version %d; bootstrap from snapshot", since))
		return
	}
	var buf bytes.Buffer
	if err := mogul.WriteLogEntries(&buf, entries); err != nil {
		distError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(versionHeader, strconv.FormatUint(s.ix.Version(), 10))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

func (s *ShardServer) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		distError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
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
			distError(w, http.StatusInternalServerError, err.Error())
			return
		}
		if s.ix.Version() == ver {
			break
		}
		if i == attempts-1 {
			distError(w, http.StatusServiceUnavailable, "index mutating too fast to snapshot consistently")
			return
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(versionHeader, strconv.FormatUint(ver, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

func (s *ShardServer) handleAlive(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		distError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	space := s.ix.IDSpace()
	dead := []int{}
	for id := 0; id < space; id++ {
		if !s.ix.Alive(id) {
			dead = append(dead, id)
		}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"id_space": space,
		"dead":     dead,
		"version":  s.ix.Version(),
	})
}

func (s *ShardServer) handleTruncate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		distError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req struct {
		UpTo uint64 `json:"up_to"`
	}
	if err := serve.ReadJSON(w, r, &req); err != nil {
		serve.RejectBody(w, err, "bad JSON: "+err.Error())
		return
	}
	s.ix.TruncateEntries(req.UpTo)
	writeJSON(w, http.StatusOK, map[string]interface{}{"log_len": s.ix.LogLen()})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// distError renders errors through the serve layer's canonical
// renderer, so the /dist/* endpoints and the serve endpoints present
// one error format (and one Content-Type) to clients.
func distError(w http.ResponseWriter, status int, msg string) {
	serve.WriteError(w, status, msg)
}
