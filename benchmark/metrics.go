package main

// The metric names are the benchmark's contract: BENCHMARK.json lists
// the same names, units, directions and bounds (bench_test.go checks
// the two agree), and later issues cite them verbatim.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the service sees. Bound is the share of
// the parent's median by which the metric may worsen.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"qps_sat", "1/s", "higher", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"recall_at_10", "ratio", "higher", 0.01},
	{"ok_share", "ratio", "higher", 0.001},
	{"index_mb", "MB", "lower", 0.01},
	{"heap_mb", "MB", "lower", 0.10},
}

// perLayer is the budget behind them, one module per prefix. A value
// of 0 means the layer is not on the workload's path (dist.* off
// dist_fanout, core.attach_us on id workloads, a tail percentile the
// sample cannot support).
var perLayer = []metricDef{
	{Name: "client.solo_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "client.solo_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.solo_p999_ms", Unit: "ms", Better: "lower"},
	{Name: "client.sat_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.sat_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.samples", Unit: "count", Better: "higher"},
	{Name: "client.ok_share", Unit: "ratio", Better: "higher"},
	{Name: "http.self_us", Unit: "us", Better: "lower"},
	{Name: "serve.self_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_mean_us", Unit: "us", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "serve.shed_total", Unit: "count", Better: "lower"},
	{Name: "serve.errors_total", Unit: "count", Better: "lower"},
	{Name: "mogul.query_us", Unit: "us", Better: "lower"},
	{Name: "mogul.direct_topk_us", Unit: "us", Better: "lower"},
	{Name: "mogul.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "mogul.alloc_bytes_per_query", Unit: "count", Better: "lower"},
	{Name: "mogul.insert_us", Unit: "us", Better: "lower"},
	{Name: "mogul.delete_us", Unit: "us", Better: "lower"},
	{Name: "mogul.compact_s", Unit: "s", Better: "lower"},
	{Name: "mogul.delta_items", Unit: "count", Better: "lower"},
	{Name: "mogul.version_bumps", Unit: "count", Better: "lower"},
	{Name: "mogul.build_s", Unit: "s", Better: "lower"},
	{Name: "mogul.save_s", Unit: "s", Better: "lower"},
	{Name: "mogul.load_s", Unit: "s", Better: "lower"},
	{Name: "mogul.map_s", Unit: "s", Better: "lower"},
	{Name: "core.attach_us", Unit: "us", Better: "lower"},
	{Name: "core.topk_us", Unit: "us", Better: "lower"},
	{Name: "core.clusters_pruned_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.scores_per_query", Unit: "count", Better: "lower"},
	{Name: "core.cluster_s", Unit: "s", Better: "lower"},
	{Name: "core.permute_s", Unit: "s", Better: "lower"},
	{Name: "core.factor_s", Unit: "s", Better: "lower"},
	{Name: "core.factor_nnz", Unit: "count", Better: "lower"},
	{Name: "knn.graph_build_s", Unit: "s", Better: "lower"},
	{Name: "vec.sqdist_batch_ns_per_row", Unit: "ns", Better: "lower"},
	{Name: "vec.dot_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "vec.dotgather_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "dist.calls_per_query", Unit: "count", Better: "lower"},
	{Name: "dist.roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "dist.shard_handler_us", Unit: "us", Better: "lower"},
	{Name: "dist.wire_self_us", Unit: "us", Better: "lower"},
	{Name: "dist.coord_self_us", Unit: "us", Better: "lower"},
	{Name: "dist.extra_attempts", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "go.allocs_per_request", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
}
