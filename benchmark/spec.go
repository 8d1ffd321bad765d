package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"mogul"
	"mogul/dist"
	"mogul/serve"
)

// Workload definitions. Every workload serves a PINNED corpus (its
// generator seed is a constant below) and takes its traffic — request
// order, held-out vectors, inserted vectors, the Zipf relabelling —
// from --seed. The corpus is pinned because Mogul's clustering is a
// lottery in the corpus seed: at n = 14000 the border cluster the
// pruned search must always scan has 2616 nodes for generator seed 1
// and ~340 for seeds 2-4, a 2x swing in query time that would read as
// a regression whenever the seed changed. Pinning it also lets the
// exact Manifold Ranking goldens be committed (testdata/oracle), so no
// run pays the O(n^2 d) oracle.

const (
	topK       = 10
	corpusSeed = 1
	poolSeed   = 0x9001
	poolSize   = 64
	heldOut    = 2048
)

type engineKind int

const (
	kindGraph engineKind = iota
	kindGraphMapped
	kindEMR
	kindSpectral
	kindDist
)

// spec is one workload: a corpus, an engine stack, and a traffic mix.
type spec struct {
	name, why string
	kind      engineKind
	n         int
	corpus    func(n int) []mogul.Vector
	opts      mogul.Options
	emr       mogul.EMROptions
	shards    int

	// vector workloads POST /search/vector with held-out vectors; id
	// workloads GET /search?id=. Held-out and inserted vectors are
	// stored points moved by N(0, sigma^2) per coordinate, re-normalised
	// when the corpus is unit-norm.
	vector   bool
	sigma    float64
	unitNorm bool

	cacheBytes int64
	// zipf > 0 draws read ids from Zipf(zipf) over a seeded relabelling
	// instead of uniformly; writeShare is the share of the scripted
	// traffic that is /insert + /delete (half each).
	zipf       float64
	writeShare float64

	// traceRequests sizes the fixed-count phases of the traced run
	// (about 1.5 s each at the reference container's speed), so that
	// cache-hit sequences and work counters repeat exactly.
	traceRequests int

	ref refSizing
}

// refSizing pins the reference requests (reference.go) this workload's
// timings are held against. rows makes one reference request cost about
// what one read costs, writeRows what the mean of an insert and a delete
// costs. soloMs, satQPS and writeMs are what those references read on
// the reference container at its faster speed when they were sized; they
// only turn the measured ratios back into ms and 1/s.
type refSizing struct {
	rows, writeRows         int
	soloMs, satQPS, writeMs float64
}

func mixture8(n int) []mogul.Vector {
	return mogul.NewMixture(mogul.MixtureConfig{
		N: n, Classes: max(n/10, 2), Dim: 8, WithinStd: 0.25, Separation: 3.0, Seed: corpusSeed,
	}).Points
}

// unit512 is the CNN-embedding stand-in: unit-norm d = 512 points on
// 16-dimensional class manifolds, 50 points per class.
func unit512(n int) []mogul.Vector {
	pts := mogul.NewMixture(mogul.MixtureConfig{
		N: n, Classes: max(n/50, 2), Dim: 512, IntrinsicDim: 16, WithinStd: 0.25, Separation: 3.0, Seed: corpusSeed,
	}).Points
	for _, p := range pts {
		normalize(p)
	}
	return pts
}

func inria(n int) []mogul.Vector { return mogul.NewINRIASim(n, corpusSeed).Points }

func normalize(v mogul.Vector) {
	var s float64
	for _, x := range v {
		s += x * x
	}
	s = 1 / math.Sqrt(s)
	for i := range v {
		v[i] *= s
	}
}

// workloads lists the six serving workloads at benchmark scale. Sizes
// are what three set-ups plus the measured phases fit into ~20 s on two
// cores (the driver's cap); README.md records what each was scaled
// from and the layer shares measured at these sizes.
func workloads() []*spec {
	return []*spec{
		{
			name: "graph_id", kind: kindGraph, n: 14000, corpus: inria,
			why:           "paper's headline path: core's pruned top-k over the incomplete factor is most of the request, serve/http a small fixed cost",
			opts:          mogul.Options{ApproximateGraph: true},
			sigma:         0.05,
			traceRequests: 12000,
			ref:           refSizing{rows: 1700, soloMs: 0.08, satQPS: 19500, writeRows: 3500, writeMs: 0.166},
		},
		{
			name: "graph_vec_d512", kind: kindGraphMapped, n: 6000, corpus: unit512,
			why:    "d=512 out-of-sample over f32+mmap: serve's JSON decode of 512 floats and vec's f32 distance kernels in core's attach are the request",
			opts:   mogul.Options{ApproximateGraph: true, Precision: mogul.F32},
			vector: true, sigma: 0.01, unitNorm: true,
			traceRequests: 5000,
			ref:           refSizing{rows: 1800, soloMs: 0.33, satQPS: 6100, writeRows: 0, writeMs: 0.208},
		},
		{
			name: "emr_vec", kind: kindEMR, n: 20000, corpus: mixture8,
			why:    "anchor-graph engine: the dense p x p Gram solve per query dominates while parse (8 floats) and the n*s scan are small",
			emr:    mogul.EMROptions{NumAnchors: 1024, NumNearestAnchors: 24},
			vector: true, sigma: 0.05,
			traceRequests: 1000,
			ref:           refSizing{rows: 36000, soloMs: 1.57, satQPS: 1300, writeRows: 300, writeMs: 0.04},
		},
		{
			name: "spectral_id", kind: kindSpectral, n: 20000, corpus: mixture8,
			why:           "truncated eigenbasis: adaptive hops plus the O(n*r) embedding scan dominate and grow with n where emr_vec does not",
			opts:          mogul.Options{ApproximateGraph: true},
			sigma:         0.05,
			traceRequests: 500,
			ref:           refSizing{rows: 60000, soloMs: 2.5, satQPS: 750, writeRows: 3500, writeMs: 0.235},
		},
		{
			name: "dist_fanout", kind: kindDist, n: 20000, corpus: mixture8, shards: 4,
			why:           "coordinator over four shard servers: one owner search plus three vector probes over HTTP per query, so dist's codec and hops dominate",
			sigma:         0.05,
			traceRequests: 3000,
			ref:           refSizing{rows: 10000, soloMs: 0.52, satQPS: 4150, writeRows: 8000, writeMs: 0.478},
		},
		{
			name: "mixed_rw", kind: kindGraph, n: 20000, corpus: mixture8,
			why:        "Zipf reads through serve's version-stamped cache with inserts and deletes that empty it: hit path, invalidation and delta merge together",
			sigma:      0.05,
			cacheBytes: 64 << 20, zipf: 1.2, writeShare: 0.001,
			traceRequests: 20000,
			ref:           refSizing{rows: 250, soloMs: 0.028, satQPS: 38000, writeRows: 2000, writeMs: 0.117},
		},
	}
}

// small returns the workload shrunk to smoke-test size.
func (sp *spec) small() *spec {
	s := *sp
	s.n = 800
	if s.kind == kindGraphMapped {
		s.n = 400
	}
	if s.kind == kindEMR {
		s.emr = mogul.EMROptions{NumAnchors: 64, NumNearestAnchors: 8}
	}
	s.traceRequests = 300
	return &s
}

func findWorkload(name string) *spec {
	for _, sp := range workloads() {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// perturbed returns a random stored point moved by sigma per coordinate.
func (sp *spec) perturbed(pts []mogul.Vector, rng *rand.Rand) mogul.Vector {
	base := pts[rng.Intn(len(pts))]
	q := make(mogul.Vector, len(base))
	for j := range q {
		q[j] = base[j] + sp.sigma*rng.NormFloat64()
	}
	if sp.unitNorm {
		normalize(q)
	}
	return q
}

// query is one read: an item id or a vector.
type query struct {
	id  int
	vec mogul.Vector
}

// pool is the fixed query pool verification and recall run over. It
// does not depend on --seed, so the committed goldens cover it.
func (sp *spec) pool(pts []mogul.Vector) []query {
	rng := rand.New(rand.NewSource(poolSeed))
	out := make([]query, poolSize)
	for i := range out {
		if sp.vector {
			out[i] = query{vec: sp.perturbed(pts, rng)}
		} else {
			out[i] = query{id: rng.Intn(len(pts))}
		}
	}
	return out
}

func (q query) request() request {
	if q.vec == nil {
		return request{op: opRead, method: http.MethodGet, path: fmt.Sprintf("/search?id=%d&k=%d", q.id, topK), q: q}
	}
	body, err := json.Marshal(map[string]interface{}{"vector": q.vec, "k": topK})
	if err != nil {
		panic(err) // finite floats always marshal
	}
	return request{op: opRead, method: http.MethodPost, path: "/search/vector", body: body, q: q}
}

// traffic is one client's script. Reads are uniform ids, Zipf ids or a
// cycle over pre-marshalled held-out vectors; with writeShare > 0 a
// write is an insert of a fresh perturbed point or, alternately, a
// delete of the oldest id this client inserted — base ids are never
// deleted, so no read can fail.
type traffic struct {
	sp      *spec
	pts     []mogul.Vector
	rng     *rand.Rand
	zipf    *rand.Zipf
	relabel []int
	vectors []request
	cursor  int
	mine    []int // ids this client inserted, oldest first
	delNext bool
}

// scripts builds one traffic script per client from the run's seed,
// plus the script of the insert/delete pairs (client 0's, so its
// deletes find the ids its inserts returned).
func (sp *spec) scripts(pts []mogul.Vector, seed int64, clients int) (reads, writes []script) {
	shared := rand.New(rand.NewSource(seed))
	var vectors []request
	if sp.vector {
		for i := 0; i < heldOut; i++ {
			vectors = append(vectors, query{vec: sp.perturbed(pts, shared)}.request())
		}
	}
	var relabel []int
	if sp.zipf > 0 {
		relabel = shared.Perm(len(pts))
	}
	for c := 0; c < clients; c++ {
		t := &traffic{sp: sp, pts: pts, rng: rand.New(rand.NewSource(seed*7919 + int64(c) + 1)), relabel: relabel, vectors: vectors}
		if sp.zipf > 0 {
			t.zipf = rand.NewZipf(t.rng, sp.zipf, 1, uint64(len(pts)-1))
		}
		t.cursor = c * len(vectors) / clients
		reads = append(reads, t)
		if c == 0 {
			writes = []script{writer{t}}
		}
	}
	return reads, writes
}

func (t *traffic) next() request {
	if t.sp.writeShare > 0 && t.rng.Float64() < t.sp.writeShare {
		return t.write()
	}
	switch {
	case t.vectors != nil:
		rq := t.vectors[t.cursor%len(t.vectors)]
		t.cursor++
		return rq
	case t.zipf != nil:
		return query{id: t.relabel[t.zipf.Uint64()]}.request()
	}
	return query{id: t.rng.Intn(len(t.pts))}.request()
}

// write alternates insert and delete-of-own-oldest.
func (t *traffic) write() request {
	if t.delNext && len(t.mine) > 0 {
		id := t.mine[0]
		t.mine = t.mine[1:]
		t.delNext = false
		return request{op: opDelete, method: http.MethodPost, path: "/delete", body: []byte(fmt.Sprintf(`{"id":%d}`, id))}
	}
	t.delNext = true
	v := t.sp.perturbed(t.pts, t.rng)
	body, err := json.Marshal(map[string]interface{}{"vector": v})
	if err != nil {
		panic(err)
	}
	return request{op: opInsert, method: http.MethodPost, path: "/insert", body: body}
}

// observe checks a 200 reply's shape and records an insert's id.
func (t *traffic) observe(rq request, body []byte) bool {
	switch rq.op {
	case opInsert:
		var r struct {
			ID *int `json:"id"`
		}
		if json.Unmarshal(body, &r) != nil || r.ID == nil {
			return false
		}
		t.mine = append(t.mine, *r.ID)
		return true
	case opRead:
		return looksLikeAnswers(body)
	}
	return len(body) > 0
}

// writer scripts strict insert/delete pairs, whatever the workload's
// own write share.
type writer struct{ *traffic }

func (w writer) next() request { return w.write() }

// stack is a workload's hosted serving stack.
type stack struct {
	// engine is what serve wraps, undecorated: direct calls, Stats(),
	// Delta() and Version() go here.
	engine mogul.Retriever
	url    string
	// stage holds the timed set-up calls (build_s, save_s, map_s).
	stage map[string]float64
	// saved is the index file set-up wrote, when the workload has one.
	saved string
	// parts are the shard indexes of a dist stack.
	parts []*mogul.Index
	stops []func()
}

// close tears the stack down in reverse order of construction and
// waits for every server goroutine.
func (st *stack) close() {
	for i := len(st.stops) - 1; i >= 0; i-- {
		st.stops[i]()
	}
	st.stops = nil
}

// listen hosts h on a fresh loopback port.
func (st *stack) listen(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		_ = srv.Serve(l) // returns ErrServerClosed on Close
		close(done)
	}()
	st.stops = append(st.stops, func() {
		_ = srv.Close()
		<-done
	})
	return "http://" + l.Addr().String(), nil
}

func timed(stage map[string]float64, name string, f func() error) error {
	t0 := time.Now()
	err := f()
	stage[name] = time.Since(t0).Seconds()
	return err
}

// setup builds the engine from the in-memory corpus, persists and maps
// it where the workload does, and hosts the real handlers on loopback
// listeners. With rec != nil every public seam is decorated.
func (sp *spec) setup(pts []mogul.Vector, dir string, rec *recorder) (st *stack, err error) {
	st = &stack{stage: map[string]float64{}}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	switch sp.kind {
	case kindGraph:
		err = timed(st.stage, "build_s", func() (e error) { st.engine, e = mogul.Build(pts, sp.opts); return })
	case kindEMR:
		err = timed(st.stage, "build_s", func() (e error) { st.engine, e = mogul.BuildEMR(pts, sp.opts, sp.emr); return })
	case kindSpectral:
		err = timed(st.stage, "build_s", func() (e error) {
			st.engine, e = mogul.BuildSpectral(pts, sp.opts, mogul.SpectralOptions{})
			return
		})
	case kindGraphMapped:
		err = sp.setupMapped(st, pts, dir)
	case kindDist:
		err = sp.setupDist(st, pts, rec)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: building engine: %w", sp.name, err)
	}
	served := st.engine
	if rec != nil {
		served = tracedRetriever{Retriever: st.engine, r: rec}
	}
	srv := serve.New(served, serve.Options{CacheBytes: sp.cacheBytes})
	st.stops = append(st.stops, srv.Close)
	var h http.Handler = srv
	if rec != nil {
		h = rec.handler(spServe, srv)
	}
	if st.url, err = st.listen(h); err != nil {
		return nil, err
	}
	return st, nil
}

// setupMapped builds, writes the page-aligned container and serves it
// through a read-only memory map; the built index is dropped.
func (sp *spec) setupMapped(st *stack, pts []mogul.Vector, dir string) error {
	var ix *mogul.Index
	if err := timed(st.stage, "build_s", func() (e error) { ix, e = mogul.Build(pts, sp.opts); return }); err != nil {
		return err
	}
	st.saved = filepath.Join(dir, sp.name+".mogul")
	if err := timed(st.stage, "save_s", func() error { return ix.SaveFileAligned(st.saved, 4096) }); err != nil {
		return err
	}
	st.stops = append(st.stops, func() { _ = os.Remove(st.saved) })
	return timed(st.stage, "map_s", func() error {
		r, closer, err := mogul.LoadFileMapped(st.saved)
		if err != nil {
			return err
		}
		st.engine = r
		st.stops = append(st.stops, func() { _ = closer.Close() })
		return nil
	})
}

// setupDist hosts one shard server per shard on its own listener and
// puts a coordinator over remote clients in front of them.
func (sp *spec) setupDist(st *stack, pts []mogul.Vector, rec *recorder) error {
	var partition [][]int
	err := timed(st.stage, "build_s", func() (e error) {
		st.parts, partition, e = dist.BuildShardIndexes(pts, sp.opts, sp.shards)
		return
	})
	if err != nil {
		return err
	}
	shards := make([]dist.Shard, len(st.parts))
	for i, ix := range st.parts {
		ss := dist.NewShardServer(ix, serve.Options{})
		st.stops = append(st.stops, ss.Close)
		var h http.Handler = ss
		var copts dist.ClientOptions
		if rec != nil {
			h = rec.handler(spShard, ss)
			copts.Transport = tracedTransport{next: &http.Transport{MaxIdleConnsPerHost: 16}, r: rec}
		}
		url, err := st.listen(h)
		if err != nil {
			return err
		}
		cl := dist.NewClient(url, copts)
		st.stops = append(st.stops, cl.CloseIdleConnections)
		shards[i] = dist.Shard{Replicas: []dist.Backend{cl}}
	}
	coord, err := dist.NewCoordinator(shards, partition, dist.CoordOptions{})
	if err != nil {
		return err
	}
	st.engine = coord
	return nil
}

// persisted lists the engines that hold the served state: the engine
// itself, or every shard of a dist stack (a coordinator cannot Save).
func (st *stack) persisted() []mogul.Retriever {
	if st.parts == nil {
		return []mogul.Retriever{st.engine}
	}
	out := make([]mogul.Retriever, len(st.parts))
	for i, ix := range st.parts {
		out[i] = ix
	}
	return out
}

// countWriter counts the bytes Save writes.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// indexBytes is what persisting the served state writes: the file
// set-up saved, else Save into a counter.
func (st *stack) indexBytes() (int64, error) {
	if st.saved != "" {
		fi, err := os.Stat(st.saved)
		if err != nil {
			return 0, err
		}
		return fi.Size(), nil
	}
	var cw countWriter
	for _, e := range st.persisted() {
		if err := e.Save(&cw); err != nil {
			return 0, err
		}
	}
	return cw.n, nil
}
