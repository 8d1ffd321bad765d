package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mogul"
)

// testIndex builds the small labelled fixture the endpoint tests run
// against.
func testIndex(t *testing.T) (*mogul.Index, *mogul.Dataset) {
	t.Helper()
	ds := mogul.NewMixture(mogul.MixtureConfig{
		N: 300, Classes: 6, Dim: 8, WithinStd: 0.2, Separation: 2.5, Seed: 4,
	})
	idx, err := mogul.BuildFromDataset(ds, mogul.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return idx, ds
}

// testServer mounts the fixture behind a plain Server (no cache, no
// batching): the endpoint-contract tests run on the direct path.
func testServer(t *testing.T) (*Server, *mogul.Dataset) {
	t.Helper()
	idx, ds := testIndex(t)
	s := New(idx, Options{Labels: ds.Labels})
	t.Cleanup(s.Close)
	return s, ds
}

func doJSON(t *testing.T, h http.Handler, method, path string, body interface{}) (*httptest.ResponseRecorder, map[string]interface{}) {
	t.Helper()
	var reader *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		reader = bytes.NewReader(data)
	} else {
		reader = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, reader)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var decoded map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil {
		t.Fatalf("%s %s: non-JSON response %q", method, path, rec.Body.String())
	}
	return rec, decoded
}

func TestHealthz(t *testing.T) {
	s, ds := testServer(t)
	rec, body := doJSON(t, s, http.MethodGet, "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if body["status"] != "ok" {
		t.Fatalf("body: %v", body)
	}
	if int(body["items"].(float64)) != ds.Len() {
		t.Fatalf("items: %v", body["items"])
	}
	if body["has_labels"] != true {
		t.Fatal("labels not reported")
	}
	if int(body["version"].(float64)) != 1 {
		t.Fatalf("fresh index version on the wire: %v", body["version"])
	}
}

func TestSearchEndpoint(t *testing.T) {
	s, ds := testServer(t)
	rec, body := doJSON(t, s, http.MethodGet, "/search?id=5&k=4", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, body)
	}
	answers := body["answers"].([]interface{})
	if len(answers) != 4 {
		t.Fatalf("got %d answers", len(answers))
	}
	first := answers[0].(map[string]interface{})
	if int(first["item"].(float64)) != 5 {
		t.Fatalf("query not first: %v", first)
	}
	if int(first["label"].(float64)) != ds.Labels[5] {
		t.Fatalf("label wrong: %v", first)
	}
	// Default k when the parameter is absent.
	_, body = doJSON(t, s, http.MethodGet, "/search?id=5", nil)
	if int(body["k"].(float64)) != 10 {
		t.Fatalf("default k: %v", body["k"])
	}
	// Errors.
	rec, _ = doJSON(t, s, http.MethodGet, "/search?id=abc", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad id status %d", rec.Code)
	}
	rec, _ = doJSON(t, s, http.MethodGet, "/search?id=999999", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("out-of-range id status %d", rec.Code)
	}
	rec, _ = doJSON(t, s, http.MethodPost, "/search?id=5", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /search status %d", rec.Code)
	}
}

// An explicit non-positive k is a client bug and gets a 400 — the old
// server silently served k=10 instead, hiding it.
func TestKValidation(t *testing.T) {
	s, ds := testServer(t)
	for _, raw := range []string{"0", "-3", "junk"} {
		rec, _ := doJSON(t, s, http.MethodGet, "/search?id=5&k="+raw, nil)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("k=%s status %d, want 400", raw, rec.Code)
		}
	}
	rec, _ := doJSON(t, s, http.MethodPost, "/search/vector", map[string]interface{}{
		"vector": ds.Points[0], "k": -1,
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("vector k=-1 status %d, want 400", rec.Code)
	}
	rec, _ = doJSON(t, s, http.MethodPost, "/search/set", map[string]interface{}{
		"ids": []int{1}, "k": -2,
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("set k=-2 status %d, want 400", rec.Code)
	}
	rec, _ = doJSON(t, s, http.MethodPost, "/search/batch", map[string]interface{}{
		"ids": []int{1}, "k": -2,
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("batch k=-2 status %d, want 400", rec.Code)
	}
}

func TestSearchVectorEndpoint(t *testing.T) {
	s, ds := testServer(t)
	rec, body := doJSON(t, s, http.MethodPost, "/search/vector", map[string]interface{}{
		"vector": ds.Points[7], "k": 3,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, body)
	}
	if len(body["answers"].([]interface{})) != 3 {
		t.Fatalf("answers: %v", body["answers"])
	}
	// Wrong dimension.
	rec, _ = doJSON(t, s, http.MethodPost, "/search/vector", map[string]interface{}{
		"vector": []float64{1, 2}, "k": 3,
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad vector status %d", rec.Code)
	}
	// Bad JSON.
	req := httptest.NewRequest(http.MethodPost, "/search/vector", bytes.NewReader([]byte("{")))
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON status %d", rec2.Code)
	}
	// GET not allowed.
	rec, _ = doJSON(t, s, http.MethodGet, "/search/vector", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", rec.Code)
	}
}

func TestSearchSetEndpoint(t *testing.T) {
	s, _ := testServer(t)
	rec, body := doJSON(t, s, http.MethodPost, "/search/set", map[string]interface{}{
		"ids": []int{1, 2, 3}, "k": 5,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, body)
	}
	if len(body["answers"].([]interface{})) != 5 {
		t.Fatalf("answers: %v", body["answers"])
	}
	rec, _ = doJSON(t, s, http.MethodPost, "/search/set", map[string]interface{}{"ids": []int{}})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty ids status %d", rec.Code)
	}
}

func TestItemEndpoint(t *testing.T) {
	s, ds := testServer(t)
	rec, body := doJSON(t, s, http.MethodGet, "/item/9", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if int(body["label"].(float64)) != ds.Labels[9] {
		t.Fatalf("label: %v", body["label"])
	}
	if len(body["neighbors"].([]interface{})) == 0 {
		t.Fatal("no neighbours")
	}
	rec, _ = doJSON(t, s, http.MethodGet, "/item/xyz", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad id status %d", rec.Code)
	}
	rec, _ = doJSON(t, s, http.MethodGet, "/item/99999", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("out-of-range status %d", rec.Code)
	}
}

func TestSearchBatchEndpoint(t *testing.T) {
	s, _ := testServer(t)
	rec, body := doJSON(t, s, http.MethodPost, "/search/batch", map[string]interface{}{
		"ids": []int{1, 2, -5}, "k": 3,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, body)
	}
	results := body["results"].([]interface{})
	if len(results) != 3 {
		t.Fatalf("got %d batch entries", len(results))
	}
	first := results[0].(map[string]interface{})
	if len(first["answers"].([]interface{})) != 3 {
		t.Fatalf("first entry answers: %v", first)
	}
	bad := results[2].(map[string]interface{})
	if bad["error"] == nil || bad["error"] == "" {
		t.Fatalf("invalid id did not error: %v", bad)
	}
	rec, _ = doJSON(t, s, http.MethodPost, "/search/batch", map[string]interface{}{"ids": []int{}})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty ids status %d", rec.Code)
	}
	rec, _ = doJSON(t, s, http.MethodGet, "/search/batch", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", rec.Code)
	}
}

func TestStatsEndpoint(t *testing.T) {
	s, _ := testServer(t)
	// Fresh server: zero counters.
	_, body := doJSON(t, s, http.MethodGet, "/stats", nil)
	if int(body["queries_served"].(float64)) != 0 {
		t.Fatalf("fresh stats: %v", body)
	}
	doJSON(t, s, http.MethodGet, "/search?id=5&k=3", nil)
	doJSON(t, s, http.MethodGet, "/search?id=999999&k=3", nil)                               // error
	doJSON(t, s, http.MethodPost, "/insert", map[string]interface{}{"vector": []float64{1}}) // error (dim)
	_, body = doJSON(t, s, http.MethodGet, "/stats", nil)
	if int(body["queries_served"].(float64)) != 2 {
		t.Fatalf("served counter: %v", body)
	}
	if int(body["query_errors"].(float64)) != 1 {
		t.Fatalf("error counter: %v", body)
	}
	// Per-endpoint breakdown: the insert error must land on "insert",
	// not in one global tally.
	eps := body["endpoints"].(map[string]interface{})
	search := eps["search"].(map[string]interface{})
	if int(search["requests"].(float64)) != 2 || int(search["errors"].(float64)) != 1 {
		t.Fatalf("search endpoint stats: %v", search)
	}
	insert := eps["insert"].(map[string]interface{})
	if int(insert["requests"].(float64)) != 1 || int(insert["errors"].(float64)) != 1 {
		t.Fatalf("insert endpoint stats: %v", insert)
	}
}

func TestInsertEndpoint(t *testing.T) {
	s, ds := testServer(t)
	before := ds.Len()

	// A valid insert returns the next id and shows up in searches.
	rec, body := doJSON(t, s, http.MethodPost, "/insert", map[string]interface{}{
		"vector": ds.Points[3],
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, body)
	}
	id := int(body["id"].(float64))
	if id != before {
		t.Fatalf("first insert got id %d, want %d", id, before)
	}
	if int(body["items"].(float64)) != before+1 {
		t.Fatalf("items: %v", body["items"])
	}
	rec, body = doJSON(t, s, http.MethodGet, fmt.Sprintf("/search?id=%d&k=3", id), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("search on inserted id: status %d, %v", rec.Code, body)
	}
	// The inserted item carries no label; its duplicate base item does.
	answers := body["answers"].([]interface{})
	for _, a := range answers {
		if int(a.(map[string]interface{})["item"].(float64)) == id {
			if _, ok := a.(map[string]interface{})["label"]; ok {
				t.Fatal("inserted item was given a label")
			}
		}
	}

	// Error paths: wrong dimension, bad JSON, wrong method.
	rec, _ = doJSON(t, s, http.MethodPost, "/insert", map[string]interface{}{
		"vector": []float64{1, 2},
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("wrong-dim insert status %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/insert", bytes.NewReader([]byte("{")))
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON status %d", rec2.Code)
	}
	rec, _ = doJSON(t, s, http.MethodGet, "/insert", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /insert status %d", rec.Code)
	}
}

func TestDeleteEndpoint(t *testing.T) {
	s, ds := testServer(t)
	rec, body := doJSON(t, s, http.MethodPost, "/delete", map[string]interface{}{"id": 5})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, body)
	}
	if int(body["items"].(float64)) != ds.Len()-1 {
		t.Fatalf("items after delete: %v", body["items"])
	}
	// The deleted item is gone from searches and errors as a query.
	rec, body = doJSON(t, s, http.MethodGet, "/search?id=0&k=300", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("search status %d", rec.Code)
	}
	for _, a := range body["answers"].([]interface{}) {
		if int(a.(map[string]interface{})["item"].(float64)) == 5 {
			t.Fatal("deleted item still in results")
		}
	}
	rec, _ = doJSON(t, s, http.MethodGet, "/search?id=5&k=3", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("search on deleted id status %d", rec.Code)
	}
	// Error paths: double delete, unknown id, missing body, method.
	rec, _ = doJSON(t, s, http.MethodPost, "/delete", map[string]interface{}{"id": 5})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("double delete status %d", rec.Code)
	}
	rec, _ = doJSON(t, s, http.MethodPost, "/delete", map[string]interface{}{"id": 999999})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown id status %d", rec.Code)
	}
	rec, _ = doJSON(t, s, http.MethodPost, "/delete", map[string]interface{}{})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("missing id status %d", rec.Code)
	}
	rec, _ = doJSON(t, s, http.MethodGet, "/delete", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /delete status %d", rec.Code)
	}
}

func TestCompactEndpoint(t *testing.T) {
	s, ds := testServer(t)
	doJSON(t, s, http.MethodPost, "/insert", map[string]interface{}{"vector": ds.Points[1]})
	_, body := doJSON(t, s, http.MethodGet, "/healthz", nil)
	if int(body["delta_items"].(float64)) != 1 {
		t.Fatalf("delta_items before compact: %v", body)
	}
	rec, body := doJSON(t, s, http.MethodPost, "/compact", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, body)
	}
	if int(body["items"].(float64)) != ds.Len()+1 {
		t.Fatalf("items after compact: %v", body["items"])
	}
	_, body = doJSON(t, s, http.MethodGet, "/healthz", nil)
	if int(body["delta_items"].(float64)) != 0 {
		t.Fatalf("delta_items after compact: %v", body)
	}
	// Labels survive an insert-only compaction (ids are stable)...
	if body["has_labels"] != true {
		t.Fatal("labels dropped by insert-only compaction")
	}
	// ...and survive a delta-only delete (base ids stay aligned)...
	_, insBody := doJSON(t, s, http.MethodPost, "/insert", map[string]interface{}{"vector": ds.Points[4]})
	doJSON(t, s, http.MethodPost, "/delete", map[string]interface{}{"id": int(insBody["id"].(float64))})
	doJSON(t, s, http.MethodPost, "/compact", nil)
	_, body = doJSON(t, s, http.MethodGet, "/healthz", nil)
	if body["has_labels"] != true {
		t.Fatal("labels dropped by delta-only delete compaction")
	}
	// ...but are dropped once a delete-compaction renumbers ids.
	doJSON(t, s, http.MethodPost, "/delete", map[string]interface{}{"id": 2})
	rec, _ = doJSON(t, s, http.MethodPost, "/compact", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("second compact status %d", rec.Code)
	}
	_, body = doJSON(t, s, http.MethodGet, "/healthz", nil)
	if body["has_labels"] != false {
		t.Fatal("labels served misaligned after delete-compaction")
	}
	rec, _ = doJSON(t, s, http.MethodGet, "/compact", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /compact status %d", rec.Code)
	}
}

// TestGracefulShutdown drives the real Run loop: a request completes,
// the context is cancelled (what SIGTERM does in main), and Run
// returns cleanly while draining an in-flight request.
func TestGracefulShutdown(t *testing.T) {
	s, _ := testServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Wrap the real handler so the test can cancel the serve loop while
	// a request is provably in flight.
	started := make(chan struct{})
	var once sync.Once
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/search" {
			once.Do(func() { close(started) })
			time.Sleep(50 * time.Millisecond)
		}
		s.ServeHTTP(w, r)
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Run(ctx, l, slow, 5*time.Second) }()

	url := "http://" + l.Addr().String()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	// Cancel mid-request: graceful drain means the in-flight search
	// still gets an answer, not a reset connection.
	inflight := make(chan error, 1)
	go func() {
		r, err := http.Get(url + "/search?id=1&k=5")
		if err == nil {
			if r.StatusCode != http.StatusOK {
				err = fmt.Errorf("in-flight search status %d", r.StatusCode)
			}
			r.Body.Close()
		}
		inflight <- err
	}()
	<-started
	cancel()
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight request failed during shutdown: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after cancellation")
	}
	// The listener is closed: new connections are refused.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

func TestServerWithoutLabels(t *testing.T) {
	ds := mogul.NewMixture(mogul.MixtureConfig{N: 100, Classes: 3, Dim: 6, Seed: 5})
	idx, err := mogul.BuildFromDataset(ds, mogul.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(idx, Options{})
	t.Cleanup(s.Close)
	_, body := doJSON(t, s, http.MethodGet, "/search?id=0&k=2", nil)
	first := body["answers"].([]interface{})[0].(map[string]interface{})
	if _, ok := first["label"]; ok {
		t.Fatal("label invented for unlabelled dataset")
	}
}

// TestShardedBackend: the same handler stack serves a ShardedIndex
// (-shards N) through the Retriever surface — search, vector, insert,
// delete, compact and health all work, with global ids on the wire.
func TestShardedBackend(t *testing.T) {
	ds := mogul.NewMixture(mogul.MixtureConfig{
		N: 300, Classes: 6, Dim: 8, WithinStd: 0.2, Separation: 2.5, Seed: 4,
	})
	idx, err := mogul.BuildSharded(ds.Points, mogul.Options{}, mogul.ShardOptions{
		Shards: 3, Partitioner: mogul.PartitionKMeans,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(idx, Options{Labels: ds.Labels})
	t.Cleanup(s.Close)

	rec, body := doJSON(t, s, http.MethodGet, "/healthz", nil)
	if rec.Code != http.StatusOK || body["items"].(float64) != 300 {
		t.Fatalf("healthz: %d %v", rec.Code, body)
	}
	rec, body = doJSON(t, s, http.MethodGet, "/search?id=17&k=5", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("search: %d %v", rec.Code, body)
	}
	if answers := body["answers"].([]interface{}); len(answers) != 5 {
		t.Fatalf("search answers: %v", answers)
	}
	rec, body = doJSON(t, s, http.MethodPost, "/search/vector", map[string]interface{}{
		"vector": ds.Points[9], "k": 4,
	})
	if rec.Code != http.StatusOK || len(body["answers"].([]interface{})) != 4 {
		t.Fatalf("vector search: %d %v", rec.Code, body)
	}
	rec, body = doJSON(t, s, http.MethodPost, "/insert", map[string]interface{}{
		"vector": ds.Points[0],
	})
	if rec.Code != http.StatusOK || int(body["id"].(float64)) != 300 {
		t.Fatalf("insert: %d %v", rec.Code, body)
	}
	rec, _ = doJSON(t, s, http.MethodPost, "/delete", map[string]int{"id": 5})
	if rec.Code != http.StatusOK {
		t.Fatalf("delete: %d", rec.Code)
	}
	rec, body = doJSON(t, s, http.MethodPost, "/compact", nil)
	if rec.Code != http.StatusOK || int(body["items"].(float64)) != 300 {
		t.Fatalf("compact: %d %v", rec.Code, body)
	}
	rec, body = doJSON(t, s, http.MethodGet, "/search?id=300&k=3", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("search of inserted id after compact: %d %v", rec.Code, body)
	}
}

// TestMetricsEndpoint exercises the Prometheus exposition: counters
// move with traffic, histograms and gauges are present, shed and
// cache families appear when their features are on.
func TestMetricsEndpoint(t *testing.T) {
	idx, ds := testIndex(t)
	s := New(idx, Options{Labels: ds.Labels, CacheBytes: 1 << 20})
	t.Cleanup(s.Close)

	doJSON(t, s, http.MethodGet, "/search?id=5&k=3", nil)
	doJSON(t, s, http.MethodGet, "/search?id=5&k=3", nil) // cache hit
	doJSON(t, s, http.MethodPost, "/search/vector", map[string]interface{}{"vector": ds.Points[2], "k": 3})

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	out := rec.Body.String()
	for _, want := range []string{
		`mogul_requests_total{endpoint="search"} 2`,
		`mogul_request_duration_seconds_bucket{endpoint="search",le="+Inf"} 2`,
		`mogul_request_duration_seconds_count{endpoint="search"} 2`,
		`mogul_cache_hits_total 1`,
		`mogul_cache_misses_total`,
		`mogul_requests_total{endpoint="search_vector"} 1`,
		`mogul_shed_total 0`,
		`mogul_index_version 1`,
		fmt.Sprintf(`mogul_index_items %d`, ds.Len()),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestCachedSearch: a repeated query is served from cache (flagged,
// identical answers), and any mutation invalidates implicitly via the
// version stamp.
func TestCachedSearch(t *testing.T) {
	idx, ds := testIndex(t)
	s := New(idx, Options{Labels: ds.Labels, CacheBytes: 1 << 20})
	t.Cleanup(s.Close)

	_, first := doJSON(t, s, http.MethodGet, "/search?id=7&k=5", nil)
	if first["cached"] != nil {
		t.Fatalf("first request claimed cached: %v", first)
	}
	_, second := doJSON(t, s, http.MethodGet, "/search?id=7&k=5", nil)
	if second["cached"] != true {
		t.Fatalf("repeat request not cached: %v", second)
	}
	a1, _ := json.Marshal(first["answers"])
	a2, _ := json.Marshal(second["answers"])
	if !bytes.Equal(a1, a2) {
		t.Fatalf("cached answers differ:\n%s\n%s", a1, a2)
	}
	// Work counters survive the cache so the response shape is stable.
	if first["clusters_scanned"] != second["clusters_scanned"] {
		t.Fatalf("cached work counters differ: %v vs %v", first["clusters_scanned"], second["clusters_scanned"])
	}

	// A mutation bumps the version: the very next identical query must
	// recompute (and see the new item in a large-k query).
	doJSON(t, s, http.MethodPost, "/insert", map[string]interface{}{"vector": ds.Points[7]})
	_, third := doJSON(t, s, http.MethodGet, "/search?id=7&k=5", nil)
	if third["cached"] == true {
		t.Fatal("stale cache entry served after insert")
	}
	a3, _ := json.Marshal(third["answers"])
	if bytes.Equal(a1, a3) {
		// The duplicate of item 7 must now compete into its own top-5.
		t.Fatal("post-insert answers identical to pre-insert: stale result")
	}

	// Vector and set paths cache too.
	for _, req := range []struct {
		path string
		body map[string]interface{}
	}{
		{"/search/vector", map[string]interface{}{"vector": ds.Points[3], "k": 4}},
		{"/search/set", map[string]interface{}{"ids": []int{1, 2}, "k": 4}},
	} {
		_, r1 := doJSON(t, s, http.MethodPost, req.path, req.body)
		_, r2 := doJSON(t, s, http.MethodPost, req.path, req.body)
		if r2["cached"] != true {
			t.Fatalf("%s repeat not cached: %v", req.path, r2)
		}
		b1, _ := json.Marshal(r1["answers"])
		b2, _ := json.Marshal(r2["answers"])
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%s cached answers differ", req.path)
		}
	}
}

// TestCacheKeyBuiltOnlyForTheCache: the exact cache key — 4 KB for a
// d = 512 query — is built when there is a cache to look in and at no
// other time.
func TestCacheKeyBuiltOnlyForTheCache(t *testing.T) {
	idx, ds := testIndex(t)
	vec := ds.Points[3]
	for _, tc := range []struct {
		name string
		opts Options
		want int
	}{
		{"plain", Options{}, 0},
		{"cached", Options{CacheBytes: 1 << 20}, 1},
	} {
		s := New(idx, tc.opts)
		built := 0
		rec := httptest.NewRecorder()
		s.answer(rec, httptest.NewRequest(http.MethodPost, "/search/vector", nil), query{echo: "vector", k: 4,
			key: func() string { built++; return keyVector(vec, 4) },
			run: func(q mogul.Querier) ([]mogul.Result, *mogul.SearchInfo, error) {
				res, err := q.TopKVector(vec, 4)
				return res, nil, err
			}})
		s.Close()
		if rec.Code != http.StatusOK || built != tc.want {
			t.Errorf("%s: status %d, key built %d times, want %d", tc.name, rec.Code, built, tc.want)
		}
	}
}

// doJSONQuiet is doJSON without the testing.T plumbing, for use inside
// goroutines.
func doJSONQuiet(h http.Handler, method, path string, body interface{}) (*httptest.ResponseRecorder, map[string]interface{}) {
	var reader *bytes.Reader
	if body != nil {
		data, _ := json.Marshal(body)
		reader = bytes.NewReader(data)
	} else {
		reader = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, reader)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var decoded map[string]interface{}
	_ = json.Unmarshal(rec.Body.Bytes(), &decoded)
	return rec, decoded
}
