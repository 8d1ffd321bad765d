package main

import (
	"context"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"mogul"
	"mogul/dist"
	"mogul/serve"
)

// TestValidate is the table over config.validate: every refusal happens
// on the flags alone — main calls it before it opens a dataset — and
// names the flag at fault; the combinations the docs recommend pass.
func TestValidate(t *testing.T) {
	// base is the default flag set plus a dataset to build from.
	base := config{mode: "serve", engine: "graph", precision: "f64", partitioner: "contiguous", shards: 1, data: "coil.gob"}
	with := func(edit func(*config)) config {
		c := base
		edit(&c)
		return c
	}
	cases := []struct {
		name string
		cfg  config
		// want is a fragment of the refusal; "" means accepted.
		want string
	}{
		{"defaults", base, ""},
		{"nothing to serve", with(func(c *config) { c.data = "" }), "-data or -load-index"},
		{"unknown engine", with(func(c *config) { c.engine = "ivf" }), "unknown -engine"},
		{"unknown precision", with(func(c *config) { c.precision = "f16" }), "unknown -precision"},
		{"unknown mode", with(func(c *config) { c.mode = "replica" }), "unknown -mode"},
		{"sharded graph", with(func(c *config) { c.shards = 4; c.partitioner = "kmeans" }), ""},
		{"unknown partitioner", with(func(c *config) { c.shards = 4; c.partitioner = "random" }), "unknown partitioner"},
		{"partitioner unused at one shard", with(func(c *config) { c.partitioner = "random" }), ""},
		{"exact graph", with(func(c *config) { c.exact = true }), ""},
		{"emr", with(func(c *config) { c.engine = "emr" }), ""},
		{"spectral", with(func(c *config) { c.engine = "spectral" }), ""},
		{"emr sharded", with(func(c *config) { c.engine = "emr"; c.shards = 2 }), "dist.LocalShard"},
		{"spectral sharded", with(func(c *config) { c.engine = "spectral"; c.shards = 2 }), "dist.LocalShard"},
		{"emr exact", with(func(c *config) { c.engine = "emr"; c.exact = true }), "-exact selects the graph engine"},
		{"spectral exact", with(func(c *config) { c.engine = "spectral"; c.exact = true }), "-exact selects the graph engine"},
		{"shard mode", with(func(c *config) { c.mode = "shard" }), ""},
		{"shard mode emr", with(func(c *config) { c.mode = "shard"; c.engine = "emr" }), ""},
		{"shard mode spectral", with(func(c *config) { c.mode = "shard"; c.engine = "spectral" }), ""},
		{"shard mode sharded", with(func(c *config) { c.mode = "shard"; c.shards = 2 }), "-mode shard serves one single-node engine"},
		{"aligned save", with(func(c *config) { c.saveAlign = 4096 }), ""},
		{"aligned emr save", with(func(c *config) { c.engine = "emr"; c.saveAlign = 4096 }), ""},
		{"odd alignment", with(func(c *config) { c.saveAlign = 1000 }), "not a power of two"},
		{"negative alignment", with(func(c *config) { c.saveAlign = -8 }), "not a power of two"},
		{"aligned sharded save", with(func(c *config) { c.shards = 2; c.saveAlign = 4096 }), "-save-align is not supported"},
		// A file decides its own engine and sharding: the build flags do
		// not apply, and what the file holds is checked once it is loaded.
		{"load", config{mode: "serve", engine: "graph", precision: "f64", loadIndex: "coil.mogul"}, ""},
		{"load into shard mode", config{mode: "shard", engine: "emr", precision: "f64", shards: 4, loadIndex: "shard0.mogul"}, ""},
		{"coordinator", config{mode: "coordinator", engine: "graph", precision: "f64", shardURLs: "http://h0:9000"}, ""},
		{"coordinator without shards", config{mode: "coordinator", engine: "graph", precision: "f64"}, "-shard-urls"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.validate()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("refused: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("accepted, want a refusal naming %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("refusal %q does not name %q", err, tc.want)
			}
		})
	}
}

// TestDialCoordinatorOverMutatedShards: shard servers that already hold
// a tombstone and a delta item get a partition sized by their id space,
// so the coordinator maps every local id — the inserted item's global
// id is the highest and answers — and its live and delta counts are the
// shards' own.
func TestDialCoordinatorOverMutatedShards(t *testing.T) {
	ds := mogul.NewMixture(mogul.MixtureConfig{N: 60, Classes: 3, Dim: 4, WithinStd: 0.3, Separation: 3, Seed: 3})
	idxs, _, err := dist.BuildShardIndexes(ds.Points, mogul.Options{Seed: 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := idxs[1].Delete(4); err != nil {
		t.Fatal(err)
	}
	local, err := idxs[1].Insert(ds.Points[40])
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	var want mogul.DeltaStats
	for _, ix := range idxs {
		ss := dist.NewShardServer(ix, serve.Options{})
		hs := httptest.NewServer(ss)
		t.Cleanup(func() { hs.Close(); ss.Close() })
		urls = append(urls, hs.URL)
		d := ix.Delta()
		want.BaseItems += d.BaseItems
		want.DeltaItems += d.DeltaItems
		want.Tombstones += d.Tombstones
	}
	coord, err := dialCoordinator(context.Background(), strings.Join(urls, ","), dist.ClientOptions{Timeout: 10 * time.Second}, dist.CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := coord.Len(); got != idxs[0].Len()+idxs[1].Len() {
		t.Fatalf("Len %d, shards hold %d live items", got, idxs[0].Len()+idxs[1].Len())
	}
	if got := coord.Delta(); got != want {
		t.Fatalf("Delta %+v, shards report %+v", got, want)
	}
	inserted := idxs[0].IDSpace() + local
	res, err := coord.TopK(inserted, 3)
	if err != nil {
		t.Fatalf("TopK of the inserted item %d: %v", inserted, err)
	}
	if !slices.ContainsFunc(res, func(r mogul.Result) bool { return r.Node == inserted }) {
		t.Fatalf("the inserted item %d is not in its own top 3 %v", inserted, res)
	}
}
