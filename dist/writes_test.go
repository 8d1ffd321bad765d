package dist_test

// What a write costs a coordinator's shards: through serve, each
// /insert and /delete reaches one shard route and nothing else, since
// the coordinator answers Delta from its own id map.

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mogul"
	"mogul/dist"
	"mogul/dist/disttest"
	"mogul/serve"
)

// shardRequests sums, over every shard server of cl, the requests each
// route has served, as the servers' /stats report them.
func shardRequests(tb testing.TB, cl *disttest.Cluster) map[string]int {
	tb.Helper()
	out := map[string]int{}
	for s, srv := range cl.Servers {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var stats struct {
			Endpoints map[string]struct{ Requests int }
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
			tb.Fatalf("shard %d /stats: %v", s, err)
		}
		for ep, c := range stats.Endpoints {
			out[ep] += c.Requests
		}
	}
	return out
}

// sinceStats is the per-route request count between two shardRequests
// readings, leaving out the /stats reads themselves.
func sinceStats(before, after map[string]int) map[string]int {
	out := map[string]int{}
	for ep, n := range after {
		if d := n - before[ep]; d != 0 && ep != "stats" {
			out[ep] = d
		}
	}
	return out
}

// postJSON sends one POST to h and decodes a 200 reply into reply (nil
// skips decoding).
func postJSON(tb testing.TB, h http.Handler, path, body string, reply any) {
	tb.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("POST %s: status %d (%s)", path, rec.Code, rec.Body.String())
	}
	if reply != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), reply); err != nil {
			tb.Fatalf("POST %s: %v", path, err)
		}
	}
}

// vectorBody is v as an /insert body.
func vectorBody(v mogul.Vector) string {
	b, _ := json.Marshal(serve.InsertRequest{Vector: v})
	return string(b)
}

// TestCoordinatorWritesAskNoInfo: through serve over a coordinator, an
// /insert and a /delete each reach exactly one shard route and no
// /dist/info, and /compact contacts only the shard with something to
// fold in — and asks it nothing about its delta first, only its new
// probe bound after.
func TestCoordinatorWritesAskNoInfo(t *testing.T) {
	ds := mogul.NewMixture(mogul.MixtureConfig{N: 120, Classes: 4, Dim: 6, WithinStd: 0.25, Separation: 3, Seed: 4})
	cl := disttest.NewCluster(t, disttest.ClusterConfig{
		Shards: 3,
		Points: ds.Points,
		Build:  mogul.Options{Seed: 3},
		Client: dist.ClientOptions{Timeout: 10 * time.Second},
	})
	srv := serve.New(cl.Coord, serve.Options{})
	defer srv.Close()

	before := shardRequests(t, cl)
	var ins serve.InsertReply
	postJSON(t, srv, "/insert", vectorBody(ds.Points[7]), &ins)
	if got := sinceStats(before, shardRequests(t, cl)); !maps.Equal(got, map[string]int{"insert": 1}) {
		t.Fatalf("/insert reached the shards as %v, want one insert", got)
	}
	if ins.ID != len(ds.Points) || ins.DeltaItems != 1 || ins.Items != len(ds.Points)+1 {
		t.Fatalf("/insert replied %+v", ins)
	}

	before = shardRequests(t, cl)
	postJSON(t, srv, "/delete", fmt.Sprintf(`{"id":%d}`, ins.ID), nil)
	if got := sinceStats(before, shardRequests(t, cl)); !maps.Equal(got, map[string]int{"delete": 1}) {
		t.Fatalf("/delete reached the shards as %v, want one delete", got)
	}

	// The tombstoned insert is all there is to fold in: its shard is
	// asked for its dead ids, compacted and asked for its rebuilt base's
	// probe bound; the other two are left be.
	before = shardRequests(t, cl)
	postJSON(t, srv, "/compact", `{}`, nil)
	if got := sinceStats(before, shardRequests(t, cl)); !maps.Equal(got, map[string]int{"compact": 1, "dist_alive": 1, "dist_bound": 1}) {
		t.Fatalf("/compact reached the shards as %v, want one dist_alive, one compact and one dist_bound", got)
	}
	if d := cl.Coord.Delta(); d != (mogul.DeltaStats{BaseItems: len(ds.Points)}) {
		t.Fatalf("Delta after compaction: %+v", d)
	}
}
