package dist_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"mogul"
	"mogul/dist"
	"mogul/serve"
)

// TestReplicationAcrossEngines: the delta log, the snapshot and the
// replicator belong to the shared engine lifecycle, so a follower of an
// anchor-graph or a spectral shard converges exactly as a graph one
// does. Per engine: a primary behind a real ShardServer, a follower
// bootstrapped from its snapshot and kept converged through a Client
// across random inserts, deletes and compactions (auto-compactions
// included); then the log is truncated past the follower's cursor, which
// must be told so and converge again from a fresh snapshot.
func TestReplicationAcrossEngines(t *testing.T) {
	ds := mogul.NewMixture(mogul.MixtureConfig{N: 220, Classes: 4, Dim: 6, WithinStd: 0.3, Separation: 3, Seed: 3})
	base, pool := ds.Points[:120], ds.Points[120:]
	opts := mogul.Options{Seed: 5, AutoCompactFraction: 0.1}
	rows := []struct {
		name  string
		build func() (dist.ShardIndex, error)
	}{
		{"graph", func() (dist.ShardIndex, error) { return mogul.Build(base, opts) }},
		{"EMR", func() (dist.ShardIndex, error) {
			return mogul.BuildEMR(base, opts, mogul.EMROptions{NumAnchors: 16, NumNearestAnchors: 4})
		}},
		{"spectral", func() (dist.ShardIndex, error) {
			return mogul.BuildSpectral(base, opts, mogul.SpectralOptions{Rank: 12})
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			primary, err := row.build()
			if err != nil {
				t.Fatal(err)
			}
			srv := dist.NewShardServer(primary, serve.Options{})
			defer srv.Close()
			hs := httptest.NewServer(srv)
			defer hs.Close()
			client := dist.NewClient(hs.URL, dist.ClientOptions{Timeout: 5 * time.Second})
			defer client.CloseIdleConnections()
			ctx := context.Background()
			rng := rand.New(rand.NewSource(7))

			// mutate applies n random mutations and reports how many
			// compactions the log gained beyond the explicit ones.
			next := 0
			mutate := func(n int) (auto int) {
				t.Helper()
				start := primary.Version()
				explicit := 0
				for i := 0; i < n; i++ {
					switch op := rng.Intn(10); {
					case op < 6:
						if _, err := primary.Insert(pool[next%len(pool)]); err != nil {
							t.Fatal(err)
						}
						next++
					case op < 9:
						for id := rng.Intn(primary.IDSpace()); ; id = rng.Intn(primary.IDSpace()) {
							if primary.Alive(id) {
								if err := primary.Delete(id); err != nil {
									t.Fatal(err)
								}
								break
							}
						}
					default:
						if d := primary.Delta(); d.DeltaItems+d.Tombstones > 0 {
							explicit++
						}
						if err := primary.Compact(); err != nil {
							t.Fatal(err)
						}
					}
				}
				entries, ok := primary.EntriesSince(start)
				if !ok {
					t.Fatal("the primary's own log does not reach back over its last mutations")
				}
				for _, e := range entries {
					if e.Op == mogul.OpCompact {
						auto++
					}
				}
				return auto - explicit
			}
			converged := func(stage string, rep *dist.Replicator, follower dist.ShardIndex) {
				t.Helper()
				if rep.Cursor() != primary.Version() {
					t.Fatalf("%s: cursor %d, primary version %d", stage, rep.Cursor(), primary.Version())
				}
				if primary.Len() != follower.Len() || primary.IDSpace() != follower.IDSpace() {
					t.Fatalf("%s: primary holds %d items in %d ids, follower %d in %d",
						stage, primary.Len(), primary.IDSpace(), follower.Len(), follower.IDSpace())
				}
				for q := 0; q < 32; q++ {
					var want, got []mogul.Result
					var werr, gerr error
					if q%2 == 0 {
						id := rng.Intn(primary.IDSpace())
						want, werr = primary.TopK(id, 10)
						got, gerr = follower.TopK(id, 10)
						if (werr == nil) != primary.Alive(id) || (werr == nil) != (gerr == nil) {
							t.Fatalf("%s: TopK(%d): primary %v, follower %v, alive %v", stage, id, werr, gerr, primary.Alive(id))
						}
					} else {
						v := pool[rng.Intn(len(pool))]
						want, werr = primary.TopKVector(v, 10)
						got, gerr = follower.TopKVector(v, 10)
						if werr != nil || gerr != nil {
							t.Fatalf("%s: TopKVector: primary %v, follower %v", stage, werr, gerr)
						}
					}
					if len(want) != len(got) {
						t.Fatalf("%s: query %d: %d answers on the primary, %d on the follower", stage, q, len(want), len(got))
					}
					for i := range want {
						if want[i].Node != got[i].Node || math.Float64bits(want[i].Score) != math.Float64bits(got[i].Score) {
							t.Fatalf("%s: query %d rank %d: primary %+v, follower %+v", stage, q, i, want[i], got[i])
						}
					}
				}
			}

			rep, follower, err := dist.Bootstrap(ctx, client)
			if err != nil {
				t.Fatal(err)
			}
			auto := 0
			for round := 0; round < 3; round++ {
				auto += mutate(15)
				if _, err := rep.CatchUp(ctx); err != nil {
					t.Fatal(err)
				}
				converged("tail", rep, follower)
			}
			if auto == 0 {
				t.Fatal("45 mutations at fraction 0.1 over 120 items triggered no auto-compaction: the interleaving went untested")
			}

			// The primary moves on and drops its log; the follower's cursor
			// now predates it.
			mutate(5)
			if err := client.TruncateLog(ctx, primary.Version()); err != nil {
				t.Fatal(err)
			}
			if _, err := rep.CatchUp(ctx); !errors.Is(err, dist.ErrLogTruncated) {
				t.Fatalf("catch-up over a truncated log: %v, want ErrLogTruncated", err)
			}
			rep, follower, err = dist.Bootstrap(ctx, client)
			if err != nil {
				t.Fatal(err)
			}
			mutate(10)
			if _, err := rep.CatchUp(ctx); err != nil {
				t.Fatal(err)
			}
			converged("re-bootstrap", rep, follower)
		})
	}
}
