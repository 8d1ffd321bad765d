package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// One run = one workload, one seed, one of two modes:
//
//	trace 0  setup x3, each between two reference builds -> verify ->
//	         warm-up -> rounds of solo, writes and sat slices, each
//	         beside a slice of the reference (reference.go); all
//	         undecorated; reports the end-to-end metrics.
//	trace 1  setup x1 with every seam decorated -> fixed-count solo,
//	         untraced and traced by turns -> sat -> direct replay -> kernels;
//	         reports the per-layer metrics and writes the trace.

// setupRounds is how many times a run sets the stack up; setup_s and
// heap_mb are medians over the rounds, the last stack is measured.
const setupRounds = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome; the exported part is the driver's
// last-line contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// phases are the per-phase attempted/succeeded/failed lines.
	phases []string
	// oracleS is the time spent computing exact rankings (0 when the
	// committed golden applied); never part of setup_s.
	oracleS float64
}

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("metric not declared: " + name)
}

func (r *result) phase(name string, p phaseResult) {
	r.phases = append(r.phases, phaseLine(name, p))
	r.Attempted += p.attempted
	r.Failed += p.failed
}

// heapAfterGC is HeapAlloc after two collections (the second frees
// what the first's finalizers released).
func heapAfterGC() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// sliceLen is the length of one solo, sat, write or reference slice.
// Short, so that a workload slice and the reference slice beside it see
// the same box: its speed changes within seconds (see reference.go).
const sliceLen = 100 * time.Millisecond

// merge pools another slice of the same phase.
func (r *phaseResult) merge(o phaseResult) {
	r.samples = append(r.samples, o.samples...)
	r.elapsed += o.elapsed
	r.attempted += o.attempted
	r.failed += o.failed
}

// firstVerified sends the first pool query and requires the engine's
// own answer back: the end of set-up.
func firstVerified(hc *http.Client, st *stack, pool []query) error {
	if _, bad := verify(hc, st, pool[:1]); bad != 0 {
		return fmt.Errorf("first request after set-up was not a verified 200")
	}
	return nil
}

// runEndToEnd is the undecorated run behind --trace 0.
func runEndToEnd(ctx context.Context, sp *spec, seed int64, seconds float64, outDir string) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	pts := sp.corpus(sp.n)
	pool := sp.pool(pts)
	exact, oracleS, err := sp.oracle(pts, pool)
	if err != nil {
		return nil, err
	}
	res.oracleS = oracleS

	hc := newHTTPClient(maxClients())
	defer hc.CloseIdleConnections()
	var st *stack
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	// Each set-up is held against the reference build before and after it.
	var setups, heaps, rawSetups, refBuilds []float64
	refBefore := refBuild()
	for round := 0; round < setupRounds; round++ {
		if st != nil {
			st.close()
			st = nil
			hc.CloseIdleConnections()
		}
		before := heapAfterGC()
		t0 := time.Now()
		if st, err = sp.setup(pts, outDir, nil); err != nil {
			return nil, err
		}
		if err := firstVerified(hc, st, pool); err != nil {
			return nil, err
		}
		took := time.Since(t0).Seconds()
		heaps = append(heaps, (heapAfterGC()-before)/1e6)
		refAfter := refBuild()
		setups, rawSetups = append(setups, took/((refBefore+refAfter)/2)), append(rawSetups, took)
		refBuilds = append(refBuilds, refAfter)
		refBefore = refAfter
	}

	served, bad := verify(hc, st, pool)
	res.phase("verify", phaseResult{attempted: len(pool), failed: bad})
	recall := 0.0
	if bad == 0 {
		recall = recallAt10(served, exact)
	}
	indexBytes, err := st.indexBytes()
	if err != nil {
		return nil, err
	}

	// Measured traffic: a warm-up, then rounds of reference solo, solo,
	// insert/delete pairs, reference write, sat, reference sat, until
	// --seconds is spent. Every gated timing is the median over the
	// rounds of the workload slice's reading over the reading of the
	// reference slice beside it.
	refURL, err := st.listen(refHandler{rows: sp.ref.rows})
	if err != nil {
		return nil, err
	}
	refWriteURL, err := st.listen(refHandler{rows: sp.ref.writeRows})
	if err != nil {
		return nil, err
	}
	scripts, writes := sp.scripts(pts, seed, maxClients())
	refs := sp.refScripts(pts, seed, maxClients())
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	runPhase(ctx, hc, st.url, scripts, phaseConfig{clients: 1, duration: sliceLen})
	runPhase(ctx, hc, refURL, refs, phaseConfig{clients: 1, duration: sliceLen})
	var ref, solo, sat, wr, cmp phaseResult
	var lat, qps, write, refLat, refQPS, refWrite, rawLat, rawQPS, rawWrite []float64
	for time.Until(deadline) > 0 && ctx.Err() == nil {
		r1 := runPhase(ctx, hc, refURL, refs, phaseConfig{clients: 1, duration: sliceLen})
		a := runPhase(ctx, hc, st.url, scripts, phaseConfig{clients: 1, duration: sliceLen, keepEvery: 16})
		w := runPhase(ctx, hc, st.url, writes, phaseConfig{clients: 1, duration: sliceLen, stride: 2})
		rw := runPhase(ctx, hc, refWriteURL, refs, phaseConfig{clients: 1, duration: sliceLen})
		b := runPhase(ctx, hc, st.url, scripts, phaseConfig{clients: maxClients(), duration: sliceLen, keepEvery: 16})
		r2 := runPhase(ctx, hc, refURL, refs, phaseConfig{clients: maxClients(), duration: sliceLen})
		if sp.writeShare == 0 {
			// Nothing but completed insert/delete pairs has touched the
			// engine, so every retained reply must equal the direct call.
			replies := append(a.kept, b.kept...)
			cmp.attempted += len(replies)
			cmp.failed += mismatches(st.engine, replies)
		}
		r1p50, _ := sliceStats(r1)
		rwp50, _ := sliceStats(rw)
		_, r2rate := sliceStats(r2)
		p50, _ := sliceStats(a)
		_, rate := sliceStats(b)
		// Inserts cost hundreds of times what deletes do, so the median of
		// the pooled sample would sit on the edge between the two; take
		// each operation's own median and average them.
		wp50 := (percentile(latencies(w.samples, opInsert), 0.5) + percentile(latencies(w.samples, opDelete), 0.5)) / 2
		lat, qps, write = append(lat, ratio(p50, r1p50)), append(qps, ratio(rate, r2rate)), append(write, ratio(wp50, rwp50))
		refLat, refQPS, refWrite = append(refLat, r1p50), append(refQPS, r2rate), append(refWrite, rwp50)
		rawLat, rawQPS, rawWrite = append(rawLat, p50), append(rawQPS, rate), append(rawWrite, wp50)
		ref.merge(r1)
		ref.merge(r2)
		ref.merge(rw)
		solo.merge(a)
		sat.merge(b)
		wr.merge(w)
	}
	res.phase("reference", ref)
	res.phase("solo", solo)
	res.phase("sat", sat)
	res.phase("write", wr)
	res.phase("compare", cmp)
	// The wall-clock readings behind the ratios, for the reader; they move
	// with the box and are not metrics.
	res.phases = append(res.phases,
		fmt.Sprintf("wall      set-up %.3f s, solo p50 %.4f ms, sat %.1f 1/s, write p50 %.4f ms",
			median(rawSetups), median(rawLat), median(rawQPS), median(rawWrite)),
		fmt.Sprintf("reference build %.4f s, solo p50 %.4f ms, sat %.1f 1/s, write p50 %.4f ms (nominal %.4f s, %.4f ms, %.1f 1/s, %.4f ms)",
			median(refBuilds), median(refLat), median(refQPS), median(refWrite), refBuildNominalS, sp.ref.soloMs, sp.ref.satQPS, sp.ref.writeMs))

	res.set(endToEnd, "setup_s", median(setups)*refBuildNominalS)
	res.set(endToEnd, "lat_p50_ms", median(lat)*sp.ref.soloMs)
	res.set(endToEnd, "qps_sat", median(qps)*sp.ref.satQPS)
	res.set(endToEnd, "write_p50_ms", median(write)*sp.ref.writeMs)
	res.set(endToEnd, "recall_at_10", recall)
	res.set(endToEnd, "ok_share", 1-float64(res.Failed)/float64(res.Attempted))
	res.set(endToEnd, "index_mb", float64(indexBytes)/1e6)
	res.set(endToEnd, "heap_mb", median(heaps))
	res.Correct = res.Failed == 0 && ctx.Err() == nil
	return res, nil
}

// runPerLayer is the decorated run behind --trace 1.
func runPerLayer(ctx context.Context, sp *spec, seed int64, seconds float64, outDir string) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	for _, d := range perLayer {
		res.Metrics[d.Name] = metric{Unit: d.Unit} // 0 = layer not on this workload's path
	}
	set := func(name string, v float64) { res.set(perLayer, name, v) }
	pts := sp.corpus(sp.n)
	pool := sp.pool(pts)

	rec := newRecorder(sp.traceRequests*12 + 4096)
	st, err := sp.setup(pts, outDir, rec)
	if err != nil {
		return nil, err
	}
	defer st.close()
	hc := newHTTPClient(maxClients())
	defer hc.CloseIdleConnections()
	_, bad := verify(hc, st, pool)
	res.phase("verify", phaseResult{attempted: len(pool), failed: bad})
	setupLayers(set, sp, st)

	// Fixed-count solo, untraced and traced in alternating eighths so
	// that drift in the box's speed falls on both sides of the overhead
	// ratio alike. The untraced parts give the client tails; the
	// /metrics deltas span all of it (exact: one client, fixed counts).
	scripts, writes := sp.scripts(pts, seed, maxClients())
	n := sp.traceRequests
	runPhase(ctx, hc, st.url, scripts, phaseConfig{clients: 1, count: n / 8}) // warm-up, by count so the script position repeats
	m0, err := scrape(hc, st.url)
	if err != nil {
		return nil, err
	}
	v0 := st.engine.Version()
	var solo, traced, cmp phaseResult
	for part := 0; part < 4; part++ {
		u := runPhase(ctx, hc, st.url, scripts, phaseConfig{clients: 1, count: n / 4, keepEvery: 16})
		if sp.writeShare == 0 {
			cmp.attempted += len(u.kept)
			cmp.failed += mismatches(st.engine, u.kept)
		}
		rec.on.Store(true)
		t := runPhase(ctx, hc, st.url, scripts, phaseConfig{clients: 1, count: n / 4, rec: rec})
		rec.on.Store(false)
		solo.merge(u)
		traced.merge(t)
	}
	res.phase("solo", solo)
	res.phase("traced", traced)
	res.phase("compare", cmp)
	m1, err := scrape(hc, st.url)
	if err != nil {
		return nil, err
	}
	serveLayers(set, sp, m0, m1)
	set("mogul.version_bumps", float64(st.engine.Version()-v0))
	set("trace.overhead_ratio", solo.elapsed.Seconds()/traced.elapsed.Seconds())
	soloLat := latencies(solo.samples, opRead)
	set("client.solo_p90_ms", percentile(soloLat, 0.9))
	if v, ok := tailPercentile(soloLat, 0.99); ok {
		set("client.solo_p99_ms", v)
	}
	if v, ok := tailPercentile(soloLat, 0.999); ok {
		set("client.solo_p999_ms", v)
	}
	set("client.samples", float64(len(soloLat)))

	// A few traced insert/delete pairs, so the write spans exist on
	// every workload.
	rec.on.Store(true)
	wr := runPhase(ctx, hc, st.url, writes, phaseConfig{clients: 1, count: 64, rec: rec})
	rec.on.Store(false)
	res.phase("traced-write", wr)
	set("mogul.delta_items", float64(st.engine.Delta().DeltaItems))

	// Untraced saturation: client-side tails and runtime cost per
	// request, generator included (it is the same on both sides of any
	// comparison).
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sat := runPhase(ctx, hc, st.url, scripts, phaseConfig{clients: maxClients(), duration: time.Duration(seconds * 0.25 * float64(time.Second))})
	runtime.ReadMemStats(&ms1)
	res.phase("sat", sat)
	satLat := latencies(sat.samples, opRead)
	set("client.sat_p50_ms", percentile(satLat, 0.5))
	if v, ok := tailPercentile(satLat, 0.99); ok {
		set("client.sat_p99_ms", v)
	}
	set("go.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	set("go.allocs_per_request", float64(ms1.Mallocs-ms0.Mallocs)/float64(max(sat.attempted, 1)))

	if err := replayLayers(set, sp, st, pts, seed); err != nil {
		return nil, err
	}
	kernelLayers(set, sp, pts)
	if err := persistLayers(set, st, outDir); err != nil {
		return nil, err
	}

	if sp.writeShare > 0 {
		// The workload that mutates also pays for folding the delta in.
		rec.on.Store(true)
		cp := runPhase(ctx, hc, st.url, []script{once{request{op: opCompact, method: http.MethodPost, path: "/compact"}}}, phaseConfig{clients: 1, count: 1, rec: rec})
		rec.on.Store(false)
		res.phase("compact", cp)
		_, bad := verify(hc, st, pool)
		res.phase("verify", phaseResult{attempted: len(pool), failed: bad})
	}

	spans, dropped := rec.recorded()
	spanLayers(set, sp, spans)
	for _, e := range nestingErrors(spans) {
		fmt.Fprintln(os.Stderr, "trace:", e)
		res.Failed++
	}
	if dropped > 0 {
		return nil, fmt.Errorf("%s: %d spans did not fit the recorder", sp.name, dropped)
	}
	if err := writeChromeTrace(filepath.Join(outDir, sp.name+".trace.json"), spans); err != nil {
		return nil, err
	}
	set("client.ok_share", 1-float64(res.Failed)/float64(res.Attempted))
	res.Correct = res.Failed == 0 && ctx.Err() == nil
	return res, nil
}

// once is a one-request script.
type once struct{ rq request }

func (o once) next() request                { return o.rq }
func (o once) observe(request, []byte) bool { return true }

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
