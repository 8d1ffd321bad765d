//go:build !race

package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// Under the race detector sync.Pool drops a share of what is Put, so the
// counts below hold only without it (as for alloc_test.go in the root
// package).

// TestServeReplyAllocs is to the reply path what TestEngineAllocs is to
// the engines: a GET /search?id= costs a fixed handful of allocations —
// hit or miss, labelled or not, k = 10 or 100 — so one that creeps back
// in (a boxed label per row, a []Answer, an encoder) fails here and not
// in a benchmark somebody has to read.
func TestServeReplyAllocs(t *testing.T) {
	idx, ds := testIndex(t)
	for _, tc := range []struct {
		name   string
		labels []int
	}{{"unlabelled", nil}, {"labelled", ds.Labels}} {
		for _, k := range []int{10, 100} {
			req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/search?id=270&k=%d", k), nil)
			get := getter()
			measure := func(s *Server) float64 {
				defer s.Close()
				if code := get(s, req); code != http.StatusOK { // fills the cache and the pools
					t.Fatalf("status %d", code)
				}
				return testing.AllocsPerRun(200, func() { get(s, req) })
			}
			hit := measure(New(idx, Options{Labels: tc.labels, CacheBytes: 1 << 20}))
			// With the cache off every request runs the engine and
			// renders its rows.
			miss := measure(New(idx, Options{Labels: tc.labels}))
			t.Logf("%s k=%d: hit %.0f allocs, miss %.0f", tc.name, k, hit, miss)
			if hit > 7 || miss > 9 {
				t.Errorf("%s k=%d: hit %.0f allocs (want <= 7), miss %.0f (want <= 9)", tc.name, k, hit, miss)
			}
		}
	}
}
