package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"

	"mogul"
	"mogul/serve"
)

// ExampleNew mounts the production serving layer over a freshly built
// index: result caching keyed by the index mutation version,
// backpressure, and /metrics — the same stack cmd/mogul-server runs,
// usable over any mogul.Retriever.
func ExampleNew() {
	ds := mogul.NewMixture(mogul.MixtureConfig{
		N: 300, Classes: 6, Dim: 8, WithinStd: 0.2, Separation: 2.5, Seed: 4,
	})
	idx, err := mogul.BuildFromDataset(ds, mogul.Options{})
	if err != nil {
		panic(err)
	}

	srv := serve.New(idx, serve.Options{
		Labels:      ds.Labels,
		CacheBytes:  16 << 20, // version-stamped result cache
		MaxInFlight: 4,        // backpressure: 429 past the queue
	})
	defer srv.Close()
	// In production: l, _ := net.Listen("tcp", ":8080") and
	// serve.Run(ctx, l, srv, 10*time.Second) for graceful shutdown.
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/search?id=17&k=3")
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var out struct {
		K       int `json:"k"`
		Answers []struct {
			Item int `json:"item"`
		} `json:"answers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		panic(err)
	}
	fmt.Printf("status %d, k=%d, first answer item %d\n", resp.StatusCode, out.K, out.Answers[0].Item)

	// The repeat of an identical query is answered from the cache.
	resp2, err := http.Get(ts.URL + "/search?id=17&k=3")
	if err != nil {
		panic(err)
	}
	defer resp2.Body.Close()
	var out2 struct {
		Cached bool `json:"cached"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&out2); err != nil {
		panic(err)
	}
	fmt.Println("repeat served from cache:", out2.Cached)

	// Prometheus metrics, no dependencies.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		panic(err)
	}
	defer mresp.Body.Close()
	var buf strings.Builder
	if _, err := fmt.Fprint(&buf, mresp.Status); err != nil {
		panic(err)
	}
	fmt.Println("metrics:", buf.String())

	// Output:
	// status 200, k=3, first answer item 17
	// repeat served from cache: true
	// metrics: 200 OK
}
