// Package mogul is a pure-Go implementation of Mogul, the scalable
// top-k Manifold Ranking search system of Fujiwara, Irie, Kuroyama and
// Onizuka, "Scaling Manifold Ranking Based Image Retrieval", PVLDB
// 8(4), 2014.
//
// Manifold Ranking scores every item of a database against a query by
// diffusing relevance over a k-nearest-neighbour graph, which respects
// the manifold (cluster) structure of the data and therefore retrieves
// semantically similar items where plain nearest-neighbour search
// returns merely visually close ones. The exact computation needs an
// n x n matrix inverse — O(n^3) time, O(n^2) memory. Mogul reduces
// both to O(n) by permuting the graph with a modularity clustering,
// factorizing the system matrix with an incomplete Cholesky
// factorization, and pruning whole clusters during search with
// provable upper bounds; an exact mode (MogulE) swaps in a complete
// sparse factorization.
//
// Typical use:
//
//	idx, err := mogul.Build(points, mogul.Options{GraphK: 5})
//	...
//	results, err := idx.TopK(queryID, 10)           // in-database query
//	results, err = idx.TopKVector(queryVec, 10)     // out-of-sample query
//
// Because the whole precomputation is query independent, an index can
// be persisted with Save/SaveFile and restored with Load/LoadFile
// (versioned binary format, docs/FORMAT.md); a loaded index returns
// bit-identical results without redoing any precomputation.
//
// Past the reach of one precomputation, BuildSharded partitions the
// database into independent shards built in parallel and searched by
// fan-out with a global-ranking merge (docs/SHARDING.md); *Index and
// *ShardedIndex share the Retriever serving surface, and Load sniffs
// the file magic to return whichever kind a file holds.
//
// The internal packages contain the full experimental apparatus
// (baselines EMR / FMR / Iterative / Inverse, synthetic datasets,
// metrics); cmd/mogul-bench regenerates every figure and table of the
// paper's evaluation.
package mogul

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"slices"

	"mogul/internal/binio"
	"mogul/internal/core"
	"mogul/internal/diskio"
	"mogul/internal/knn"
	"mogul/internal/vec"
)

// Vector is a dense feature vector (an image descriptor, attribute
// vector, embedding, ...).
type Vector = vec.Vector

// Dataset is a collection of feature vectors with optional labels.
type Dataset = vec.Dataset

// Result is one ranked answer: a database item id with its Manifold
// Ranking score (higher is more relevant).
type Result = core.Result

// Stats reports what index construction did: cluster structure,
// factor size, and precomputation timing.
type Stats = core.Stats

// SearchInfo reports per-query work counters (clusters pruned versus
// scanned, scores computed). Each engine counts its own units. Exact
// and sharded: the paper's clusters and back-substituted node scores.
// Spectral: ScoresComputed is the rows the bound-and-prune scan scored
// (a dot product each, except under a solved head, whose tail is zero),
// ClustersScanned / ClustersPruned the 64-row blocks of base rows it
// entered / skipped whole (delta rows belong to no block). EMR:
// ClustersScanned / ClustersPruned are the anchor cells (base rows
// grouped by primary anchor; delta rows belong to none) the bounded scan
// entered / skipped, ScoresComputed the rows it scored.
type SearchInfo = core.SearchInfo

// Precision selects the storage width of an engine's bulk arrays.
type Precision uint8

const (
	// F64 stores everything as float64 — the default, bit-identical to
	// every previous release.
	F64 Precision = iota
	// F32 stores the big streamed arrays — point vectors, graph edge
	// weights, factor values, anchor attachments, embedding rows — as
	// float32, roughly halving index memory and the bytes each query
	// streams. Every build and every accumulation still runs in
	// float64; narrowing happens exactly once when a value enters
	// storage, so retrieval quality is within rounding of the f64
	// engine (recall@10 >= 0.995 on the evaluation mixture at n=10^5;
	// docs/PERFORMANCE.md quantifies the traffic win).
	F32
)

// Options configures Build. The zero value gives the paper's
// evaluation settings (k = 5 graph, alpha = 0.99, approximate Mogul
// mode).
type Options struct {
	// GraphK is the k of the k-NN graph; the paper uses 5-20 and
	// evaluates with 5 (default 5).
	GraphK int
	// Alpha is the Manifold Ranking damping parameter in (0,1)
	// (default 0.99, as in the paper's evaluation).
	Alpha float64
	// Exact selects MogulE: exact Manifold Ranking scores via the
	// complete (Modified) Cholesky factorization, at the cost of a
	// denser factor.
	Exact bool
	// ApproximateGraph builds the k-NN graph with the IVF index
	// instead of the exact k-d tree search once the dataset exceeds a
	// few thousand points; recommended for n over ~50k.
	ApproximateGraph bool
	// MutualGraph keeps only mutual k-NN edges instead of the default
	// union symmetrization.
	MutualGraph bool
	// Sigma pins the heat-kernel bandwidth; 0 derives it from the
	// observed k-NN distances (the paper's convention).
	Sigma float64
	// Seed drives the stochastic pieces (IVF quantizer); results are
	// deterministic for a fixed seed.
	Seed int64
	// AutoCompactFraction makes Insert trigger an automatic Compact
	// once the pending delta (inserted items plus tombstones) exceeds
	// this fraction of the base size, bounding the recall drift of the
	// out-of-sample delta scoring; 0 disables auto-compaction. 0.1 is
	// a reasonable production setting (see README, "Dynamic updates").
	AutoCompactFraction float64
	// Precision selects float64 (default) or mixed-precision float32
	// storage for the index's bulk arrays; see the Precision constants.
	Precision Precision
}

// DeltaStats describes the dynamic state of an index: the size of the
// factored base, the live inserted items awaiting compaction, and the
// tombstones deletions left behind.
type DeltaStats = core.DeltaStats

// Index is a prebuilt Mogul search structure — the paper's engine.
// Building is query-independent: one index serves any query node, any
// answer count, and out-of-sample queries. It implements Retriever
// through the shared engine lifecycle (engine.go), which is where Len,
// Version, Stats, Delta, every TopK* entry point, Insert / Delete /
// Compact, the replication log and Save* are defined: searches run in
// parallel against the immutable base structures, while mutations grow
// the delta overlay (or swap the base) behind a write lock, so an Index
// is safe for concurrent use.
//
// Insert scores a new point through the out-of-sample extension (its
// nearest in-database neighbours act as surrogates). Compact rebuilds
// the live points into a fresh base with the original build options: for
// insert-only workloads the result — ids included — is bit-identical to
// a fresh Build over the merged point set (the whole pipeline is
// deterministic for a fixed seed); after deletions, ids are renumbered
// compactly with live items keeping their relative order. Indexes built
// via BuildFromGraphPoints or loaded from a pre-v3 file cannot Compact
// (no recorded graph recipe) and return an error.
type Index struct {
	engine[*graphState]
	core graphBackend
}

// graphState is everything a query touches, grouped so Compact can
// build a replacement off-line and swap it in atomically under the
// write lock: the immutable base and the plain-data overlay
// internal/core's search reads next to it (core.Overlay).
type graphState struct {
	engineHeader
	// base stores the base rows itself, in its knn.Graph (mapped views
	// included), so the header's ext is baseN and its points are the
	// delta items only — always aliased float64 rows: an f32 index
	// narrows them when Compact folds them into the next base.
	base *core.Index
	// ov holds the overlay's per-delta-item arrays (Probes, Weights,
	// Clusters); overlay fills in the rest from the header.
	ov core.Overlay
}

// newGraphState puts a base, and the delta layer a file carried with
// it, behind the shared header.
func newGraphState(base *core.Index, d core.Delta) *graphState {
	n := base.Factor().N
	st := &graphState{base: base, ov: core.Overlay{Probes: d.Probes, Weights: d.Weights}}
	st.engineHeader = engineHeader{
		dim: base.Graph().Points.Width(), points: d.Points, ext: n,
		dead: d.Dead, baseN: n, stats: base.Stats(),
	}
	if st.dead == nil {
		st.dead = make([]bool, n)
	}
	for id, dead := range st.dead {
		if dead {
			st.deadCount++
			if id < n {
				st.deadBase++
			}
		}
	}
	for _, probes := range d.Probes {
		st.ov.Clusters = append(st.ov.Clusters, base.ProbeClusters(probes))
	}
	return st
}

func (st *graphState) f32() bool { return st.base.Factor().F32() }

func (st *graphState) pointVec(i int) Vector {
	if i < st.ext {
		return st.base.Graph().Points.Row(i, nil)
	}
	return st.engineHeader.pointVec(i)
}

// overlay is the view of the state one search hands to internal/core;
// the header's tombstone flags are read in place.
func (st *graphState) overlay() core.Overlay {
	ov := st.ov
	ov.Dead, ov.DeadBase, ov.Live = st.dead, st.deadBase, st.live()
	return ov
}

// graphBackend is internal/core behind the engine's backend contract.
type graphBackend struct {
	ix *Index
	// opts is the recorded recipe Compact rebuilds with; its Graph is nil
	// when the library did not build the k-NN graph itself.
	opts core.Options
	// What the latest attach selected, for commit.
	probes   []int
	weights  []float64
	clusters []int
}

// newIndex starts the lifecycle over a state built (or loaded) with opts.
func newIndex(opts core.Options, st *graphState) *Index {
	ix := &Index{}
	ix.core = graphBackend{ix: ix, opts: opts}
	ix.init(&ix.core, &core.IndexFrame, "core", st.base.Alpha(), opts.Seed, opts.AutoCompactFraction, st)
	return ix
}

// loadIndex wraps a decoded MOGULIDX container.
func loadIndex(d *core.Decoded, err error) (*Index, error) {
	if err != nil {
		return nil, err
	}
	return newIndex(d.BuildOptions(), newGraphState(d.Index, d.Delta)), nil
}

// Build constructs an index over the given feature vectors.
func Build(points []Vector, opts Options) (*Index, error) {
	k := opts.GraphK
	if k <= 0 {
		k = 5
	}
	gcfg := knn.GraphConfig{
		K:           k,
		Mutual:      opts.MutualGraph,
		Sigma:       opts.Sigma,
		Approximate: opts.ApproximateGraph,
		Seed:        opts.Seed,
	}
	copts := coreOptions(opts, &gcfg)
	st, err := buildGraphState(copts, points)
	if err != nil {
		return nil, err
	}
	return newIndex(copts, st), nil
}

func coreOptions(opts Options, gcfg *knn.GraphConfig) core.Options {
	return core.Options{
		Alpha:               opts.Alpha,
		Exact:               opts.Exact,
		Seed:                opts.Seed,
		Graph:               gcfg,
		AutoCompactFraction: opts.AutoCompactFraction,
		F32:                 opts.Precision == F32,
	}
}

// BuildFromDataset is Build applied to a Dataset.
func BuildFromDataset(ds *Dataset, opts Options) (*Index, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return Build(ds.Points, opts)
}

// BuildFromGraphPoints wraps an already-constructed k-NN graph; for
// callers that built the graph themselves (custom metrics, external
// edges). Such an index supports Insert and Delete, but not Compact —
// the library cannot reproduce a graph it did not build.
func BuildFromGraphPoints(g *knn.Graph, opts Options) (*Index, error) {
	copts := coreOptions(opts, nil)
	copts.AutoCompactFraction = 0 // there is no recipe to compact with
	ci, err := core.NewIndex(g, copts)
	if err != nil {
		return nil, err
	}
	return newIndex(copts, newGraphState(ci, core.Delta{})), nil
}

// build narrows through the recipe: core.NewIndex narrows a base built
// with F32 set itself, before it derives the bound tables.
func (b *graphBackend) build(points []Vector, f32 bool) (*graphState, error) {
	opts := b.opts
	opts.F32 = f32
	return buildGraphState(opts, points)
}

// buildGraphState runs knn.BuildGraph and core.NewIndex from a recipe.
func buildGraphState(opts core.Options, points []Vector) (*graphState, error) {
	if opts.Graph == nil {
		return nil, fmt.Errorf("core: index carries no graph configuration (external graph, or loaded from a pre-v3 file); Compact unavailable")
	}
	if len(points) < 2 {
		return nil, fmt.Errorf("mogul: need at least 2 points, got %d", len(points))
	}
	g, err := knn.BuildGraph(points, *opts.Graph)
	if err != nil {
		return nil, fmt.Errorf("mogul: building k-NN graph: %w", err)
	}
	ci, err := core.NewIndex(g, opts)
	if err != nil {
		return nil, err
	}
	return newGraphState(ci, core.Delta{}), nil
}

// attach selects the new point's surrogates (core's out-of-sample
// machinery, Section 4.6.2).
func (b *graphBackend) attach(st *graphState, v Vector) (err error) {
	if st.base.Graph().Points.Len() == 0 {
		return fmt.Errorf("core: index has no feature vectors; Insert unavailable")
	}
	ov := st.overlay()
	b.probes, b.weights, b.clusters, err = st.base.Attach(&ov, v)
	return err
}

func (b *graphBackend) commit(st *graphState) {
	st.ov.Probes = append(st.ov.Probes, b.probes)
	st.ov.Weights = append(st.ov.Weights, b.weights)
	st.ov.Clusters = append(st.ov.Clusters, b.clusters)
}

func (b *graphBackend) newSearcher() *searcher[*graphState] { return &b.ix.NewSearcher().searcher }

// sections are the MOGULIDX records (docs/FORMAT.md): everything Build
// computed — the k-NN graph, the cluster permutation, the Cholesky
// factor, the out-of-sample quantizer — the build recipe, and the delta
// layer.
func (b *graphBackend) sections(st *graphState, version uint32, align int) []binio.Section {
	return st.base.Sections(version, align, &core.Delta{Points: st.points, Probes: st.ov.Probes, Weights: st.ov.Weights, Dead: st.dead})
}

// ClearTimings zeroes the wall-clock fields of the build statistics —
// the one thing Save writes that is not a deterministic function of
// (points, options) at any GOMAXPROCS — making its output byte-stable.
func (b *graphBackend) ClearTimings() {
	b.ix.mu.Lock()
	defer b.ix.mu.Unlock()
	st := b.ix.st
	st.base.ClearTimings()
	st.stats = st.base.Stats()
}

// Exact reports whether the index returns exact Manifold Ranking
// scores (MogulE) rather than the incomplete-factorization
// approximation.
func (ix *Index) Exact() bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.st.base.Exact()
}

// OOSBreakdown reports the phases of an out-of-sample search — the
// quantities the paper's Table 2 tabulates.
type OOSBreakdown = core.OOSBreakdown

// TopKVectorWithInfo is TopKVector plus the phase breakdown
// (nearest-neighbour lookup time, top-k search time, surrogate
// neighbours used).
func (ix *Index) TopKVectorWithInfo(q Vector, k int) ([]Result, *OOSBreakdown, error) {
	sr := ix.acquire()
	defer ix.release(sr)
	if err := ix.checkFinite("query", q); err != nil {
		return nil, nil, err
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ov := ix.st.overlay()
	return ix.st.base.SearchVector(&sr.be.(*Searcher).s, &ov, q, core.OOSOptions{K: k}, true)
}

// Scores returns the full Manifold Ranking score vector for an
// in-database query over the factored base (index = item id; inserted
// items are not covered until Compact). O(n) time.
func (ix *Index) Scores(query int) ([]float64, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if err := ix.checkItem(query); err != nil {
		return nil, err
	}
	return ix.st.base.AllScores(query)
}

// Neighbors returns the direct k-NN graph neighbours of an item with
// their edge weights — the paper's "Connected" comparison in the
// Figure 9 case studies (plain nearest-neighbour retrieval). For an
// inserted (delta) item, the surrogate base neighbours and their
// weights are returned; deleted neighbours are filtered out.
func (ix *Index) Neighbors(item int) (ids []int, weights []float64, err error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	st := ix.st
	switch n := st.numPoints(); {
	case item < 0 || item >= n:
		return nil, nil, ix.errf("item %d outside [0,%d)", item, n)
	case st.dead[item]:
		return nil, nil, ix.errf("item %d is deleted", item)
	case item >= st.baseN:
		return slices.Clone(st.ov.Probes[item-st.baseN]), slices.Clone(st.ov.Weights[item-st.baseN]), nil
	}
	cols, vals := st.base.Graph().Neighbors(item)
	ids = make([]int, 0, len(cols))
	weights = make([]float64, 0, len(vals))
	for t, j := range cols {
		if !st.dead[j] {
			ids = append(ids, j)
			weights = append(weights, vals[t])
		}
	}
	return ids, weights, nil
}

// Querier is the per-worker reusable query engine surface shared by
// Searcher (one index) and ShardedSearcher (a shard set): it pins the
// scratch workspaces one worker needs, so every search it runs
// allocates only the returned results. A Querier is not safe for
// concurrent use — give each goroutine its own (NewQuerier).
type Querier interface {
	// TopK ranks database items against an in-database query item.
	TopK(query, k int) ([]Result, error)
	// TopKWithInfo is TopK plus work counters (summed across shards on
	// a sharded index).
	TopKWithInfo(query, k int) ([]Result, *SearchInfo, error)
	// TopKVector ranks database items against an out-of-sample vector.
	TopKVector(q Vector, k int) ([]Result, error)
	// TopKSet ranks database items against equally weighted seed items.
	TopKSet(seeds []int, k int) ([]Result, error)
}

// Retriever is the serving surface shared by *Index and *ShardedIndex:
// everything a search service needs — the query paths, dynamic
// updates, persistence, and introspection. Load returns a Retriever,
// dispatching on the file's magic header, so callers serve a plain and
// a sharded index file through identical code.
type Retriever interface {
	Len() int
	Exact() bool
	Stats() Stats
	Delta() DeltaStats
	// Version is the monotonic mutation counter (see Index.Version):
	// unchanged Version means unchanged answers, which is what lets a
	// serving layer cache results and invalidate implicitly.
	Version() uint64
	TopK(query, k int) ([]Result, error)
	TopKWithInfo(query, k int) ([]Result, *SearchInfo, error)
	TopKVector(q Vector, k int) ([]Result, error)
	TopKSet(seeds []int, k int) ([]Result, error)
	TopKBatch(queries []int, k, parallelism int) []BatchResult
	TopKVectorBatch(queries []Vector, k, parallelism int) []BatchResult
	Neighbors(item int) (ids []int, weights []float64, err error)
	Insert(v Vector) (int, error)
	Delete(id int) error
	Compact() error
	Save(w io.Writer) error
	SaveFile(path string) error
	// NewQuerier returns a dedicated reusable query engine (a Searcher
	// or ShardedSearcher behind the Querier surface); use one per
	// worker goroutine.
	NewQuerier() Querier
}

// Both index kinds implement the full serving surface.
var (
	_ Retriever = (*Index)(nil)
	_ Retriever = (*ShardedIndex)(nil)
	_ Querier   = (*Searcher)(nil)
	_ Querier   = (*ShardedSearcher)(nil)
)

// NewQuerier is NewSearcher behind the interface surface (Retriever).
func (six *ShardedIndex) NewQuerier() Querier { return six.NewSearcher() }

// Load reads an index written by (*Index).Save, (*ShardedIndex).Save,
// (*EMRIndex).Save, or (*SpectralIndex).Save, sniffing the magic
// header to dispatch: a plain MOGULIDX stream loads as *Index, a
// sharded MOGULSHD manifest as *ShardedIndex, a MOGULEMR stream as
// *EMRIndex, a MOGULSPC stream as *SpectralIndex, all behind the
// shared Retriever surface (type-assert for the concrete API).
// Old-version, truncated, or corrupted input (every format carries a
// magic header, a version field, and a whole-file checksum) yields an
// error, never a panic.
func Load(r io.Reader) (Retriever, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("mogul: reading index header: %w", err)
	}
	return loaderFor(magic[:]).stream(io.MultiReader(bytes.NewReader(magic[:]), r))
}

// loader is how one container format loads: off a stream (payloads
// copied, CRC verified) and from a complete in-memory image such as an
// mmap'd file (zero-copy views where the layout allows).
type loader struct {
	stream func(io.Reader) (Retriever, error)
	image  func([]byte) (Retriever, error)
}

// asRetriever adapts a concrete loader to the Retriever surface (a
// failed load must yield a nil interface, not a typed nil pointer).
func asRetriever[A any, T Retriever](load func(A) (T, error)) func(A) (Retriever, error) {
	return func(a A) (Retriever, error) {
		v, err := load(a)
		if err != nil {
			return nil, err
		}
		return v, nil
	}
}

// loaders maps a container magic to its loader; Load and LoadFileMapped
// both dispatch through loaderFor.
var loaders = map[string]loader{
	// The sharded manifest embeds whole sub-engine payloads that the
	// loader re-frames and copies anyway; an image decodes through the
	// streaming reader.
	shardedMagic:  {asRetriever(LoadSharded), func(b []byte) (Retriever, error) { return LoadSharded(bytes.NewReader(b)) }},
	emrMagic:      {asRetriever(LoadEMR), asRetriever(LoadEMRBytes)},
	spectralMagic: {asRetriever(LoadSpectral), asRetriever(LoadSpectralBytes)},
}

// plainLoader reads MOGULIDX, the format core owns.
var plainLoader = loader{
	stream: asRetriever(func(r io.Reader) (*Index, error) { return loadIndex(core.ReadIndex(r)) }),
	image:  asRetriever(func(b []byte) (*Index, error) { return loadIndex(core.ReadIndexBytes(b)) }),
}

// loaderFor returns the loader for a magic. Everything unknown —
// including garbage — goes to the plain reader, whose "not a mogul
// index file" error names the magic.
func loaderFor(magic []byte) loader {
	if l, ok := loaders[string(magic)]; ok {
		return l
	}
	return plainLoader
}

// LoadFile reads an index file written by SaveFile (plain or sharded;
// see Load for the dispatch).
func LoadFile(path string) (Retriever, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// LoadFileMapped reads an index file through a read-only memory map
// and serves the large arrays directly out of the mapped pages: many
// processes loading the same file share one physical copy, and cold
// start costs page faults instead of byte copies. Best paired with a
// file written by one of the SaveAligned variants (zero-copy needs the
// arrays on their natural boundaries; unaligned files still load, just
// through copying decodes). The returned io.Closer unmaps the file and
// MUST be held open for the engine's whole lifetime — views into the
// mapping become invalid at Close. Mutating a mapped engine is safe:
// the mapped arrays are never written in place (appends relocate to
// the heap, Compact rebuilds fresh state).
//
// Unlike the streaming loaders, the trailing CRC is not verified
// (hashing would fault in every page and defeat the point); the magic,
// the version, every section frame, and all structural invariants are
// still checked, so corrupt input yields an error, never a panic. On
// platforms without mmap (or under the mogul_nommap build tag) the
// file is read into memory instead, with identical results.
func LoadFileMapped(path string) (Retriever, io.Closer, error) {
	m, err := diskio.MapFile(path)
	if err != nil {
		return nil, nil, err
	}
	data := m.Data()
	if len(data) < 8 {
		m.Close()
		return nil, nil, fmt.Errorf("mogul: reading index header: %w", io.ErrUnexpectedEOF)
	}
	r, err := loaderFor(data[:8]).image(data)
	if err != nil {
		m.Close()
		return nil, nil, err
	}
	return r, m, nil
}

// Searcher is a reusable query engine bound to one Index: it owns a
// private scratch workspace (score vectors, cluster bookkeeping, the
// top-k heap), so every search it runs allocates nothing beyond the
// returned results. The plain Index methods already recycle searchers
// through an internal pool; a Searcher additionally pins one to a
// single worker — the right shape for a fixed worker loop (see
// TopKBatch) or any caller that wants per-query overhead at its floor.
// TopK, TopKWithInfo, TopKVector and TopKSet come from the shared
// searcher half (engine.go).
//
// A Searcher is NOT safe for concurrent use: give each goroutine its
// own (they are cheap — buffers are sized lazily on first search).
// It never goes stale: after an Insert, Delete or Compact the next
// search revalidates the workspace against the index's current base
// and resizes it when needed.
type Searcher struct {
	searcher[*graphState]
	s core.Scratch
}

// NewSearcher returns a dedicated reusable query engine for the index.
func (ix *Index) NewSearcher() *Searcher {
	sr := &Searcher{}
	sr.eng, sr.be = &ix.engine, sr
	return sr
}

// NewQuerier is NewSearcher behind the interface surface (Retriever).
func (ix *Index) NewQuerier() Querier { return ix.NewSearcher() }

// scoreSeeds expands the seeds into permuted query sources and runs
// core's pruned search (Algorithm 2) over them.
func (sr *Searcher) scoreSeeds(seeds []seedWeight, k int) []Result {
	st := sr.eng.st
	ov := st.overlay()
	st.base.Begin(&sr.s)
	for _, sw := range seeds {
		st.base.AddSeed(&sr.s, &ov, sw.id, sw.w)
	}
	return st.base.SearchSeeds(&sr.s, &ov, core.SearchOptions{K: k})
}

// scoreVector is Section 4.6.2: the query's neighbours inside the
// nearest clusters act as surrogate query nodes; the affinity is their
// mean raw heat-kernel weight.
func (sr *Searcher) scoreVector(q Vector, k int) ([]Result, float64, error) {
	st := sr.eng.st
	ov := st.overlay()
	res, _, err := st.base.SearchVector(&sr.s, &ov, q, core.OOSOptions{K: k}, false)
	return res, sr.s.OOSAffinity(), err
}

func (sr *Searcher) affinity(q Vector) (float64, error) {
	st := sr.eng.st
	ov := st.overlay()
	return st.base.SurrogateAffinity(&sr.s, &ov, q)
}

func (sr *Searcher) work() SearchInfo { return sr.s.Info() }
