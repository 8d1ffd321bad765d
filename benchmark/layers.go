package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mogul"
	"mogul/internal/vec"
)

// Per-layer measurements of the traced run. Everything here reads the
// stack from outside: timed public calls, /metrics, the stage outputs
// public calls already return, and the spans the decorators recorded.

type setter func(name string, v float64)

// setupLayers reports the timed set-up calls and the build stages the
// engine itself accounts for in Stats().
func setupLayers(set setter, sp *spec, st *stack) {
	set("mogul.build_s", st.stage["build_s"])
	set("mogul.save_s", st.stage["save_s"])
	set("mogul.map_s", st.stage["map_s"])
	s := st.engine.Stats()
	set("core.cluster_s", s.ClusterTime.Seconds())
	set("core.permute_s", s.PermuteTime.Seconds())
	set("core.factor_s", s.FactorTime.Seconds())
	set("core.factor_nnz", float64(s.FactorNNZ))
	switch sp.kind {
	case kindGraph, kindGraphMapped, kindDist:
		// Build = graph construction + the three core stages. Shards
		// build in parallel, so their summed stages can exceed the wall.
		set("knn.graph_build_s", max(0, st.stage["build_s"]-s.PrecomputeTime().Seconds()))
	case kindSpectral:
		// The spectral engine reports its graph construction as
		// ClusterTime (see SpectralIndex.Stats).
		set("knn.graph_build_s", s.ClusterTime.Seconds())
	}
}

// scrape reads serve's /metrics into name{labels} -> value.
func scrape(hc *http.Client, base string) (map[string]float64, error) {
	var buf bytes.Buffer
	if status, _ := do(hc, base, request{method: http.MethodGet, path: "/metrics"}, &buf, nil, 0); status != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// serveLayers turns two scrapes around a phase into serve's counters.
func serveLayers(set setter, sp *spec, m0, m1 map[string]float64) {
	delta := func(key string) float64 { return m1[key] - m0[key] }
	ep := "search"
	if sp.vector {
		ep = "search_vector"
	}
	sum := delta(fmt.Sprintf("mogul_request_duration_seconds_sum{endpoint=%q}", ep))
	count := delta(fmt.Sprintf("mogul_request_duration_seconds_count{endpoint=%q}", ep))
	set("serve.handler_mean_us", ratio(sum*1e6, count))
	hits, misses := delta("mogul_cache_hits_total"), delta("mogul_cache_misses_total")
	set("serve.cache_hit_ratio", ratio(hits, hits+misses))
	set("serve.cache_evictions", delta("mogul_cache_evictions_total"))
	set("serve.shed_total", delta("mogul_shed_total"))
	var errs float64
	for key := range m1 {
		if strings.HasPrefix(key, "mogul_request_errors_total{") {
			errs += delta(key)
		}
	}
	set("serve.errors_total", errs)
}

// replayLayers replays the first scripted reads directly on a pinned
// querier: engine time and allocations without serve or http, and the
// work counters and stage split the Info variants return.
func replayLayers(set setter, sp *spec, st *stack, pts []mogul.Vector, seed int64) error {
	scripts, _ := sp.scripts(pts, seed, 1)
	sc := scripts[0]
	var reads []query
	for len(reads) < min(2000, sp.traceRequests) {
		if rq := sc.next(); rq.op == opRead {
			reads = append(reads, rq.q)
		}
	}
	q := st.engine.NewQuerier()
	run := func(rd query) (*mogul.SearchInfo, error) {
		if rd.vec != nil {
			_, err := q.TopKVector(rd.vec, topK)
			return nil, err
		}
		_, info, err := q.TopKWithInfo(rd.id, topK)
		return info, err
	}
	if _, err := run(reads[0]); err != nil { // size the scratch first
		return err
	}
	var lat []float64
	var pruned, scanned, scores float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, rd := range reads {
		t0 := time.Now()
		info, err := run(rd)
		lat = append(lat, us(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("%s: direct replay: %w", sp.name, err)
		}
		if info != nil {
			pruned += float64(info.ClustersPruned)
			scanned += float64(info.ClustersScanned)
			scores += float64(info.ScoresComputed)
		}
	}
	runtime.ReadMemStats(&ms1)
	n := float64(len(reads))
	set("mogul.direct_topk_us", median(lat))
	// The latency slice's own growth is a few dozen allocations over
	// the whole replay — below one per hundred queries.
	set("mogul.allocs_per_query", float64(ms1.Mallocs-ms0.Mallocs)/n)
	set("mogul.alloc_bytes_per_query", float64(ms1.TotalAlloc-ms0.TotalAlloc)/n)
	set("core.clusters_pruned_ratio", ratio(pruned, pruned+scanned))
	set("core.scores_per_query", scores/n)

	// Stage split of the pruned search engine (internal/core); the
	// anchor and spectral engines are not built on it.
	ix, isCore := st.engine.(*mogul.Index)
	switch {
	case isCore && sp.vector:
		var attach, topk []float64
		for _, rd := range reads[:min(500, len(reads))] {
			_, bd, err := ix.TopKVectorWithInfo(rd.vec, topK)
			if err != nil {
				return err
			}
			attach = append(attach, us(bd.NearestNeighbor))
			topk = append(topk, us(bd.TopK))
		}
		set("core.attach_us", median(attach))
		set("core.topk_us", median(topk))
	case isCore:
		// An in-database query is the pruned top-k and nothing else.
		set("core.topk_us", median(lat))
	}
	return nil
}

// kernelLayers times the vec kernels at the workload's dimension and
// storage precision over 4096 stored rows.
func kernelLayers(set setter, sp *spec, pts []mogul.Vector) {
	rows := pts[:min(4096, len(pts))]
	d := len(rows[0])
	q := pts[len(pts)-1]
	out := make([]float64, len(rows))
	idx := make([]int32, 4096)
	rng := rand.New(rand.NewSource(poolSeed))
	for i := range idx {
		idx[i] = int32(rng.Intn(len(out)))
	}
	val := make([]float64, len(idx))
	for i := range val {
		val[i] = rng.Float64()
	}
	var batch, dot, gather func()
	var sink float64
	if sp.opts.Precision == mogul.F32 {
		flat, _ := vec.Flatten32(rows)
		val32 := vec.Narrow32(nil, val)
		batch = func() { vec.SquaredEuclideanBatch32(q, flat, out) }
		dot = func() { sink += vec.Dot32(q, flat[:d]) }
		gather = func() { sink += vec.DotGather32I32(val32, idx, out) }
	} else {
		batch = func() { vec.SquaredEuclideanBatch(q, rows, out) }
		dot = func() { sink += vec.Dot(q, rows[0]) }
		gather = func() { sink += vec.DotGatherI32(val, idx, out) }
	}
	set("vec.sqdist_batch_ns_per_row", nsPerCall(batch)/float64(len(rows)))
	set("vec.dot_ns_per_elem", nsPerCall(dot)/float64(d))
	set("vec.dotgather_ns_per_elem", nsPerCall(gather)/float64(len(idx)))
	_ = sink
}

// nsPerCall is the median over 15 batches of f's mean time per call,
// each batch sized to ~2 ms.
func nsPerCall(f func()) float64 {
	calls := 1
	for {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			f()
		}
		if time.Since(t0) >= 2*time.Millisecond || calls >= 1<<20 {
			break
		}
		calls *= 2
	}
	var means []float64
	for b := 0; b < 15; b++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			f()
		}
		means = append(means, float64(time.Since(t0))/float64(calls))
	}
	return median(means)
}

// persistLayers times the streaming container codec: SaveFile (unless
// set-up already saved) and LoadFile of what was written. A dist stack
// persists shard by shard.
func persistLayers(set setter, st *stack, dir string) error {
	path := st.saved
	var saveS, loadS float64
	for i, e := range st.persisted() {
		if st.saved == "" {
			path = filepath.Join(dir, fmt.Sprintf("persist-%d.idx", i))
			t0 := time.Now()
			if err := e.SaveFile(path); err != nil {
				return err
			}
			saveS += time.Since(t0).Seconds()
			defer os.Remove(path)
		}
		t0 := time.Now()
		if _, err := mogul.LoadFile(path); err != nil {
			return err
		}
		loadS += time.Since(t0).Seconds()
	}
	if st.saved == "" {
		set("mogul.save_s", saveS)
	}
	set("mogul.load_s", loadS)
	return nil
}

// spanLayers reduces the trace to per-layer medians. Durations and
// self times of the request layers are taken over read requests; the
// mutation spans over whatever mutations ran.
func spanLayers(set setter, sp *spec, spans []span) {
	self := selfTimes(spans)
	reads := map[int64]bool{}
	for _, s := range spans {
		if s.Name == spClient && s.Op == "read" {
			reads[s.Req] = true
		}
	}
	dur := map[string][]float64{}
	slf := map[string][]float64{}
	var failedTrips float64
	for _, s := range spans {
		isMutation := s.Name == spInsert || s.Name == spDelete || s.Name == spCompact
		if !isMutation && !reads[s.Req] {
			continue
		}
		dur[s.Name] = append(dur[s.Name], float64(s.dur())/1e3)
		slf[s.Name] = append(slf[s.Name], float64(self[s.ID])/1e3)
		if s.Failed {
			failedTrips++
		}
	}
	set("http.self_us", median(slf[spClient]))
	set("serve.self_us", median(slf[spServe]))
	set("mogul.query_us", median(dur[spQuery]))
	set("mogul.insert_us", median(dur[spInsert]))
	set("mogul.delete_us", median(dur[spDelete]))
	if c := dur[spCompact]; len(c) > 0 {
		set("mogul.compact_s", c[0]/1e6)
	}
	if sp.kind == kindDist {
		set("dist.calls_per_query", ratio(float64(len(dur[spTrip])), float64(len(reads))))
		set("dist.roundtrip_us", median(dur[spTrip]))
		set("dist.shard_handler_us", median(dur[spShard]))
		set("dist.wire_self_us", median(slf[spTrip]))
		set("dist.coord_self_us", median(slf[spQuery]))
		set("dist.extra_attempts", failedTrips)
	}
}
