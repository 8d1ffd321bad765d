package dist_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mogul"
	"mogul/dist"
	"mogul/serve"
)

// endlessOnes is a JSON array body that never closes: `{"vector":[`
// followed by `1,` for as long as the server keeps reading.
type endlessOnes struct{ opened bool }

func (e *endlessOnes) Read(p []byte) (int, error) {
	if !e.opened {
		e.opened = true
		return copy(p, `{"vector":[`), nil
	}
	for i := range p {
		p[i] = "1,"[i%2]
	}
	return len(p), nil
}

// TestShardServerBoundsRequestBodies: the body-reading /dist endpoints
// stop at the serve layer's body cap and answer 413 in the canonical
// error shape instead of buffering whatever a client streams at them; a
// small malformed body still gets the 400 it always did.
func TestShardServerBoundsRequestBodies(t *testing.T) {
	ds := mogul.NewMixture(mogul.MixtureConfig{N: 60, Classes: 3, Dim: 4, WithinStd: 0.3, Separation: 3, Seed: 3})
	ix, err := mogul.Build(ds.Points, mogul.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := dist.NewShardServer(ix, serve.Options{})
	defer srv.Close()

	errorBody := func(rec *httptest.ResponseRecorder, wantStatus int) string {
		t.Helper()
		if rec.Code != wantStatus {
			t.Fatalf("status %d, want %d (%s)", rec.Code, wantStatus, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q, want application/json", ct)
		}
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
			t.Fatalf("body %q is not the canonical error shape (%v)", rec.Body.String(), err)
		}
		return body.Error
	}
	for _, path := range []string{"/dist/vector", "/dist/set", "/dist/truncate"} {
		// 1 GiB on offer; the handler must give up at the cap, long before.
		body := &endlessOnes{}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, io.LimitReader(body, 1<<30)))
		if msg := errorBody(rec, http.StatusRequestEntityTooLarge); !strings.Contains(msg, "request body exceeds") {
			t.Fatalf("%s: 413 message %q does not name the cap", path, msg)
		}
		rec = httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{"vector":[`)))
		errorBody(rec, http.StatusBadRequest)
	}
	if ix.Version() != 1 || ix.LogLen() != 0 {
		t.Fatalf("a rejected body reached the index: version %d, log length %d", ix.Version(), ix.LogLen())
	}
}

// TestWorkCaps: every route that takes a k — the serve routes and the
// /dist/* ones, all mounted on a ShardServer — answers k = serve.MaxK as
// it would any large k (the engine clamps to the corpus) and anything
// past it with a 400 in the canonical shape that names the cap;
// /search/batch bounds its id count by serve.MaxBatchIDs the same way.
func TestWorkCaps(t *testing.T) {
	h, stop := wireServer(t, "shard")
	defer stop()
	check := func(method, path, body string, wantStatus int, wantReply string) {
		t.Helper()
		st := play(h, wireStep{Method: method, Path: path, Body: body})
		if st.Status != wantStatus || st.Type != "application/json" || (wantReply != "" && st.Reply != wantReply) {
			t.Fatalf("%s %s %.80s: status %d (%s) reply %.200q, want %d %q", method, path, body, st.Status, st.Type, st.Reply, wantStatus, wantReply)
		}
	}
	// $K stands for k, in the path or in the body.
	routes := []struct{ method, path, body string }{
		{http.MethodGet, "/search?id=1&k=$K", ""},
		{http.MethodPost, "/search/vector", `{"vector":[2.9,-2.1,0.1,0.9],"k":$K}`},
		{http.MethodPost, "/search/set", `{"ids":[1,2],"k":$K}`},
		{http.MethodPost, "/search/batch", `{"ids":[1,2],"k":$K}`},
		{http.MethodGet, "/dist/owner?id=1&k=$K", ""},
		{http.MethodPost, "/dist/vector", `{"vector":[2.9,-2.1,0.1,0.9],"k":$K}`},
		{http.MethodPost, "/dist/set", `{"ids":[1,2],"weight":0.5,"k":$K}`},
	}
	for _, rt := range routes {
		for _, k := range []int{serve.MaxK, serve.MaxK + 1, math.MaxInt32} {
			withK := strings.NewReplacer("$K", strconv.Itoa(k))
			wantStatus, wantReply := http.StatusOK, ""
			if k > serve.MaxK {
				wantStatus, wantReply = http.StatusBadRequest, fmt.Sprintf(`{"error":"k must be at most %d, got %d"}`+"\n", serve.MaxK, k)
			}
			check(rt.method, withK.Replace(rt.path), withK.Replace(rt.body), wantStatus, wantReply)
		}
	}
	batch := func(n int) string {
		return `{"ids":[` + strings.Repeat("1,", n-1) + `1],"k":1}`
	}
	check(http.MethodPost, "/search/batch", batch(serve.MaxBatchIDs), http.StatusOK, "")
	check(http.MethodPost, "/search/batch", batch(serve.MaxBatchIDs+1), http.StatusBadRequest,
		fmt.Sprintf(`{"error":"ids must number at most %d, got %d"}`+"\n", serve.MaxBatchIDs, serve.MaxBatchIDs+1))
}

// TestShardServerCountsDistRoutes: the /dist/* routes are rows of the
// same route table as the serve routes, so the only search traffic a
// coordinator sends shows up in /metrics and /stats — requests and
// errors both. (They used to sit on a private mux that bypassed the
// instrumentation.)
func TestShardServerCountsDistRoutes(t *testing.T) {
	ds := mogul.NewMixture(mogul.MixtureConfig{N: 60, Classes: 3, Dim: 4, WithinStd: 0.3, Separation: 3, Seed: 3})
	ix, err := mogul.Build(ds.Points, mogul.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv := dist.NewShardServer(ix, serve.Options{})
	defer srv.Close()
	send := func(method, path, body string, wantStatus int) string {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != wantStatus {
			t.Fatalf("%s %s: status %d, want %d (%s)", method, path, rec.Code, wantStatus, rec.Body.String())
		}
		return rec.Body.String()
	}
	send(http.MethodGet, "/dist/owner?id=3&k=5", "", http.StatusOK)
	send(http.MethodPost, "/dist/vector", `{"vector":[2.9,-2.1,0.1,0.9],"k":3}`, http.StatusOK)
	send(http.MethodPost, "/dist/set", `{"ids":[1,2],"weight":0.5,"k":0}`, http.StatusBadRequest)

	metrics := send(http.MethodGet, "/metrics", "", http.StatusOK)
	var stats struct {
		Endpoints map[string]struct{ Requests, Errors int }
	}
	if err := json.Unmarshal([]byte(send(http.MethodGet, "/stats", "", http.StatusOK)), &stats); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		endpoint         string
		requests, errors int
	}{{"dist_owner", 1, 0}, {"dist_vector", 1, 0}, {"dist_set", 1, 1}, {"dist_alive", 0, 0}} {
		for series, n := range map[string]int{"mogul_requests_total": want.requests, "mogul_request_errors_total": want.errors} {
			if line := fmt.Sprintf("%s{endpoint=%q} %d\n", series, want.endpoint, n); !strings.Contains(metrics, line) {
				t.Errorf("/metrics lacks %q", line)
			}
		}
		if got := stats.Endpoints[want.endpoint]; got.Requests != want.requests || got.Errors != want.errors {
			t.Errorf("/stats %s: %+v, want %d requests, %d errors", want.endpoint, got, want.requests, want.errors)
		}
	}
	if want := fmt.Sprintf("mogul_request_duration_seconds_count{endpoint=%q} 1\n", "dist_owner"); !strings.Contains(metrics, want) {
		t.Errorf("/metrics lacks the latency histogram line %q", want)
	}
}

// node is everything a Client speaks: the Backend surface plus the
// replication calls.
type node interface {
	dist.Backend
	dist.LogSource
	TruncateLog(ctx context.Context, upTo uint64) error
	Snapshot(ctx context.Context) (dist.ShardIndex, uint64, error)
}

// localNode is the in-process meaning of each call: LocalShard for the
// Backend surface, the index itself for replication.
type localNode struct {
	dist.LocalShard
	dist.LogSource
	ix *mogul.Index
}

func (n localNode) TruncateLog(_ context.Context, upTo uint64) error {
	n.ix.TruncateEntries(upTo)
	return nil
}

func (n localNode) Snapshot(context.Context) (dist.ShardIndex, uint64, error) {
	return n.ix, n.ix.Version(), nil
}

// TestClientMatchesLocalShard drives every Client method against a real
// ShardServer over HTTP and the same call in process on a twin index,
// and requires identical returns — ids, score bits, vector, affinity,
// dead list (nil-ness included), log entries. It then reads the
// server's route table back through /stats: every route must either
// have been reached by a Client call above or be listed as one no
// Client method speaks, so a route added to ShardServer later fails
// here until it has a round-trip case.
func TestClientMatchesLocalShard(t *testing.T) {
	ds := mogul.NewMixture(mogul.MixtureConfig{N: 60, Classes: 3, Dim: 4, WithinStd: 0.3, Separation: 3, Seed: 3})
	served, twin := buildPair(t, ds.Points, mogul.Options{Seed: 3})
	srv := dist.NewShardServer(served, serve.Options{})
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()
	cl := dist.NewClient(hs.URL, dist.ClientOptions{})
	defer cl.CloseIdleConnections()
	var remote, local node = cl, localNode{dist.LocalShard{Ix: twin}, dist.IndexSource(twin), twin}

	ctx := context.Background()
	probe := mogul.Vector{2.9, -2.1, 0.1, 0.9}
	type out []interface{}
	steps := []struct {
		route string
		call  func(n node) (out, error)
	}{
		{"dist_owner", func(n node) (out, error) {
			res, vec, aff, err := n.OwnerSearch(ctx, 3, 5)
			return out{res, vec, aff}, err
		}},
		{"dist_vector", func(n node) (out, error) {
			res, aff, err := n.VectorSearch(ctx, probe, 5)
			return out{res, aff}, err
		}},
		{"dist_set", func(n node) (out, error) {
			res, err := n.SetSearch(ctx, []int{1, 2, 3}, 1.0/3, 5)
			return out{res}, err
		}},
		{"item", func(n node) (out, error) {
			ids, weights, err := n.NeighborsCtx(ctx, 4)
			return out{ids, weights}, err
		}},
		{"dist_alive", func(n node) (out, error) { // all live: an empty, non-nil dead list
			space, dead, err := n.AliveMap(ctx)
			return out{space, dead}, err
		}},
		{"insert", func(n node) (out, error) {
			id, err := n.InsertCtx(ctx, probe)
			return out{id}, err
		}},
		{"delete", func(n node) (out, error) { return nil, n.DeleteCtx(ctx, 7) }},
		{"dist_alive", func(n node) (out, error) {
			space, dead, err := n.AliveMap(ctx)
			return out{space, dead}, err
		}},
		{"dist_owner", func(n node) (out, error) { // the inserted item as the query
			res, vec, aff, err := n.OwnerSearch(ctx, 60, 5)
			return out{res, vec, aff}, err
		}},
		{"dist_log", func(n node) (out, error) {
			entries, ok, err := n.LogEntries(ctx, 1)
			return out{entries, ok}, err
		}},
		{"dist_truncate", func(n node) (out, error) { return nil, n.TruncateLog(ctx, 2) }},
		{"dist_log", func(n node) (out, error) { // truncated past the cursor: ok=false, no error
			entries, ok, err := n.LogEntries(ctx, 1)
			return out{entries, ok}, err
		}},
		{"dist_info", func(n node) (out, error) {
			info, err := n.InfoCtx(ctx)
			// The twins were built separately; only the stage wall
			// clocks may differ.
			info.Stats.ClusterTime, info.Stats.PermuteTime, info.Stats.FactorTime = 0, 0, 0
			return out{info}, err
		}},
		{"dist_snapshot", func(n node) (out, error) {
			ix, ver, err := n.Snapshot(ctx)
			if err != nil {
				return nil, err
			}
			res, err := ix.TopK(60, 5)
			return out{ver, ix.Len(), ix.IDSpace(), res}, err
		}},
		{"dist_bound", func(n node) (out, error) { return boundOut(n.BoundCtx(ctx)) }},
		{"compact", func(n node) (out, error) { return nil, n.CompactCtx(ctx) }},
		{"dist_alive", func(n node) (out, error) {
			space, dead, err := n.AliveMap(ctx)
			return out{space, dead}, err
		}},
		{"dist_bound", func(n node) (out, error) { return boundOut(n.BoundCtx(ctx)) }}, // the rebuilt base's
	}
	reached := map[string]int{}
	for i, st := range steps {
		got, err := st.call(remote)
		if err != nil {
			t.Fatalf("step %d (%s) over HTTP: %v", i, st.route, err)
		}
		want, err := st.call(local)
		if err != nil {
			t.Fatalf("step %d (%s) in process: %v", i, st.route, err)
		}
		// DeepEqual sees nil against empty; %x prints every float's bits.
		if !reflect.DeepEqual(got, want) || fmt.Sprintf("%x", got) != fmt.Sprintf("%x", want) {
			t.Fatalf("step %d (%s):\nClient     %v\nLocalShard %v", i, st.route, got, want)
		}
		reached[st.route]++
	}

	resp, err := http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Endpoints map[string]struct{ Requests int }
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	// The routes no Client method speaks: the public query surface and
	// the observability endpoints.
	notClient := []string{"healthz", "stats", "metrics", "search", "search_vector", "search_set", "search_batch"}
	if len(stats.Endpoints) < len(notClient)+len(reached) {
		t.Fatalf("/stats lists %d routes, fewer than the %d this test knows", len(stats.Endpoints), len(notClient)+len(reached))
	}
	for name, ep := range stats.Endpoints {
		switch n, ok := reached[name]; {
		case ok && ep.Requests != n:
			t.Errorf("route %s: served %d requests, the Client calls above should have sent %d", name, ep.Requests, n)
		case !ok && !slices.Contains(notClient, name):
			t.Errorf("route %s has no round-trip case: drive the Client method that speaks it above, or list it in notClient", name)
		}
	}
}

// boundOut is a BoundCtx return as TestClientMatchesLocalShard compares
// it: the bound's fields, not its address.
func boundOut(b *mogul.ProbeBound, err error) ([]interface{}, error) {
	if err != nil || b == nil {
		return []interface{}{b}, err
	}
	return []interface{}{*b}, nil
}

// poisonedShard plants a NaN where a /dist search reply carries a float:
// the first score, the query vector's first element, or the affinity.
type poisonedShard struct {
	*mogul.Index
	where string
}

func (p poisonedShard) score(res []mogul.Result) []mogul.Result {
	res = slices.Clone(res)
	if p.where == "score" {
		res[0].Score = math.NaN()
	}
	return res
}

func (p poisonedShard) affinity(aff float64) float64 {
	if p.where == "affinity" {
		return math.NaN()
	}
	return aff
}

func (p poisonedShard) TopKWithVector(query, k int) ([]mogul.Result, mogul.Vector, float64, error) {
	res, vec, aff, err := p.Index.TopKWithVector(query, k)
	if vec = slices.Clone(vec); p.where == "vector" {
		vec[0] = math.NaN()
	}
	return p.score(res), vec, p.affinity(aff), err
}

func (p poisonedShard) TopKVectorWithAffinity(q mogul.Vector, k int) ([]mogul.Result, float64, error) {
	res, aff, err := p.Index.TopKVectorWithAffinity(q, k)
	return p.score(res), p.affinity(aff), err
}

func (p poisonedShard) TopKSetWeighted(seeds []int, weight float64, k int) ([]mogul.Result, error) {
	res, err := p.Index.TopKSetWeighted(seeds, weight, k)
	return p.score(res), err
}

// TestShardServerRefusesNonFinite: a NaN in a /dist search reply — a
// score, a query vector element, an affinity — answers 500 in the
// canonical error shape, naming what could not be sent (the shard-local
// item for a score), and a Client reports that message. The shard used
// to send the 200 header, fail to encode, and leave the coordinator
// with "unexpected end of JSON input".
func TestShardServerRefusesNonFinite(t *testing.T) {
	ds := mogul.NewMixture(mogul.MixtureConfig{N: 60, Classes: 3, Dim: 4, WithinStd: 0.3, Separation: 3, Seed: 3})
	ix, err := mogul.Build(ds.Points, mogul.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	probe := mogul.Vector{2.9, -2.1, 0.1, 0.9}
	for _, tc := range []struct {
		where, route string
		call         func(c *dist.Client) error
	}{
		{"score", "owner", func(c *dist.Client) error { _, _, _, err := c.OwnerSearch(ctx, 3, 5); return err }},
		{"score", "vector", func(c *dist.Client) error { _, _, err := c.VectorSearch(ctx, probe, 5); return err }},
		{"score", "set", func(c *dist.Client) error { _, err := c.SetSearch(ctx, []int{1, 2}, 0.5, 5); return err }},
		{"vector", "owner", func(c *dist.Client) error { _, _, _, err := c.OwnerSearch(ctx, 3, 5); return err }},
		{"affinity", "owner", func(c *dist.Client) error { _, _, _, err := c.OwnerSearch(ctx, 3, 5); return err }},
		{"affinity", "vector", func(c *dist.Client) error { _, _, err := c.VectorSearch(ctx, probe, 5); return err }},
	} {
		t.Run(tc.where+"_"+tc.route, func(t *testing.T) {
			p := poisonedShard{ix, tc.where}
			want := "non-finite " + tc.where
			if tc.where == "score" {
				// The item the reply would have named first.
				var res []mogul.Result
				switch tc.route {
				case "owner":
					res, _, _, err = ix.TopKWithVector(3, 5)
				case "vector":
					res, _, err = ix.TopKVectorWithAffinity(probe, 5)
				default:
					res, err = ix.TopKSetWeighted([]int{1, 2}, 0.5, 5)
				}
				if err != nil {
					t.Fatal(err)
				}
				want += ": item " + strconv.Itoa(res[0].Node) + " scored NaN"
			}
			srv := dist.NewShardServer(p, serve.Options{})
			defer srv.Close()
			hs := httptest.NewServer(srv)
			defer hs.Close()
			c := dist.NewClient(hs.URL, dist.ClientOptions{Retries: -1})
			defer c.CloseIdleConnections()
			err = tc.call(c)
			if err == nil || !strings.Contains(err.Error(), "server returned 500") || !strings.Contains(err.Error(), want) {
				t.Fatalf("Client error %v, want a 500 naming %q", err, want)
			}
		})
	}
}
