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
// entered / skipped whole (delta rows belong to no block). EMR prunes
// nothing: every live item is scored and ClustersScanned is the anchor
// count.
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
	// instead of exact brute force once the dataset exceeds a few
	// thousand points; recommended for n over ~50k.
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

// Index is a prebuilt Mogul search structure. Building is
// query-independent: one index serves any query node, any answer
// count, and out-of-sample queries. An Index is safe for concurrent
// use: searches run in parallel against the immutable base
// structures, while Insert/Delete/Compact mutate the delta layer (or
// swap the base) behind a write lock.
type Index struct {
	core *core.Index
}

// Build constructs an index over the given feature vectors.
func Build(points []Vector, opts Options) (*Index, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("mogul: need at least 2 points, got %d", len(points))
	}
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
	g, err := knn.BuildGraph(points, gcfg)
	if err != nil {
		return nil, fmt.Errorf("mogul: building k-NN graph: %w", err)
	}
	ci, err := core.NewIndex(g, core.Options{
		Alpha:               opts.Alpha,
		Exact:               opts.Exact,
		Seed:                opts.Seed,
		Graph:               &gcfg,
		AutoCompactFraction: opts.AutoCompactFraction,
		F32:                 opts.Precision == F32,
	})
	if err != nil {
		return nil, err
	}
	return &Index{core: ci}, nil
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
	ci, err := core.NewIndex(g, core.Options{
		Alpha:               opts.Alpha,
		Exact:               opts.Exact,
		Seed:                opts.Seed,
		AutoCompactFraction: opts.AutoCompactFraction,
		F32:                 opts.Precision == F32,
	})
	if err != nil {
		return nil, err
	}
	return &Index{core: ci}, nil
}

// Len returns the number of live indexed items: the built base plus
// inserted items, minus deletions.
func (ix *Index) Len() int { return ix.core.Len() }

// Version returns the index's monotonic mutation version: it starts at
// 1 and increases on every Insert, Delete, and Compact (the coarser
// internal epoch moves only on Compact). Reading it is a single atomic
// load, so callers can stamp derived artifacts — cached query results,
// exported snapshots — and later detect "the index changed under me"
// without re-running the query. Two equal readings bracket a window
// with no visible mutation.
func (ix *Index) Version() uint64 { return ix.core.Version() }

// TopK returns the k database items with the highest Manifold Ranking
// scores for an in-database query item, best first. The query item
// itself is included (it typically ranks first); callers that want
// "results other than the query" can skip it.
func (ix *Index) TopK(query, k int) ([]Result, error) {
	return ix.core.TopK(query, k)
}

// TopKWithInfo is TopK plus work counters (how many clusters the upper
// bounds pruned).
func (ix *Index) TopKWithInfo(query, k int) ([]Result, *SearchInfo, error) {
	return ix.core.Search(query, core.SearchOptions{K: k})
}

// TopKVector ranks database items for a query vector that is not in
// the database (out-of-sample query, Section 4.6.2 of the paper): the
// query's neighbours inside the nearest cluster act as surrogate query
// nodes; the index itself is not modified.
func (ix *Index) TopKVector(q Vector, k int) ([]Result, error) {
	return ix.core.TopKVector(q, k)
}

// OOSBreakdown reports the phases of an out-of-sample search — the
// quantities the paper's Table 2 tabulates.
type OOSBreakdown = core.OOSBreakdown

// TopKVectorWithInfo is TopKVector plus the phase breakdown
// (nearest-neighbour lookup time, top-k search time, surrogate
// neighbours used).
func (ix *Index) TopKVectorWithInfo(q Vector, k int) ([]Result, *OOSBreakdown, error) {
	return ix.core.SearchOutOfSample(q, core.OOSOptions{K: k})
}

// seedQueries turns a seed-id list into the equal-weight multi-query
// form shared by Index.TopKSet and Searcher.TopKSet.
func seedQueries(seeds []int) ([]core.WeightedQuery, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("mogul: TopKSet needs at least one seed item")
	}
	wq := make([]core.WeightedQuery, len(seeds))
	for i, s := range seeds {
		wq[i] = core.WeightedQuery{Node: s, Weight: 1 / float64(len(seeds))}
	}
	return wq, nil
}

// TopKSet ranks database items against a set of seed items with equal
// weights — "find items like these". Seeds typically rank first; skip
// them in the output if undesired.
func (ix *Index) TopKSet(seeds []int, k int) ([]Result, error) {
	wq, err := seedQueries(seeds)
	if err != nil {
		return nil, err
	}
	res, _, err := ix.core.SearchMulti(wq, core.SearchOptions{K: k})
	return res, err
}

// Scores returns the full Manifold Ranking score vector for an
// in-database query (index = item id). O(n) time.
func (ix *Index) Scores(query int) ([]float64, error) {
	return ix.core.AllScores(query)
}

// Neighbors returns the direct k-NN graph neighbours of an item with
// their edge weights — the paper's "Connected" comparison in the
// Figure 9 case studies (plain nearest-neighbour retrieval). For an
// inserted (delta) item, the surrogate base neighbours and their
// weights are returned; deleted neighbours are filtered out.
func (ix *Index) Neighbors(item int) (ids []int, weights []float64, err error) {
	return ix.core.Neighbors(item)
}

// Save writes the fully precomputed index to w in the versioned
// binary format described in docs/FORMAT.md: everything Build
// computed — the k-NN graph, the cluster permutation, the Cholesky
// factor, the pruning-bound inputs, and the out-of-sample quantizer —
// is persisted, so a loaded index is immediately search-ready.
// Because all of Mogul's precomputation is query independent, this
// turns the O(n) build into a one-off: build once, serve forever.
func (ix *Index) Save(w io.Writer) error {
	_, err := ix.core.WriteTo(w)
	return err
}

// SaveFile writes the index to a file via Save. The file is written to
// a temporary sibling and renamed into place, so a crash mid-save
// never leaves a truncated index at path. The file is created with
// mode 0644 regardless of umask; callers that need the index private
// can Save to a file they opened themselves.
func (ix *Index) SaveFile(path string) error {
	return saveFileAtomic(path, ix.Save)
}

// SaveAligned writes the index in the aligned container layout: every
// large array starts on an align-byte boundary (use the page size for
// mmap sharing via LoadFileMapped). Works in either precision; align
// must be a positive power of two.
func (ix *Index) SaveAligned(w io.Writer, align int) error {
	_, err := ix.core.WriteToAligned(w, align)
	return err
}

// SaveFileAligned is SaveAligned to a file with the same atomic
// temp-file-and-rename protocol as SaveFile.
func (ix *Index) SaveFileAligned(path string, align int) error {
	return saveFileAtomic(path, func(w io.Writer) error { return ix.SaveAligned(w, align) })
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
func (ix *Index) NewQuerier() Querier { return ix.NewSearcher() }

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
	stream: func(r io.Reader) (Retriever, error) { return plainIndex(core.ReadIndex(r)) },
	image:  func(b []byte) (Retriever, error) { return plainIndex(core.ReadIndexBytes(b)) },
}

func plainIndex(ci *core.Index, err error) (Retriever, error) {
	if err != nil {
		return nil, err
	}
	return &Index{core: ci}, nil
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

// LoadIndex reads an index file written by SaveFile.
//
// Deprecated: use LoadFile.
func LoadIndex(path string) (Retriever, error) { return LoadFile(path) }

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
// returned results. The plain Index methods already recycle scratches
// through an internal pool; a Searcher additionally pins one to a
// single worker — the right shape for a fixed worker loop (see
// TopKBatch) or any caller that wants per-query overhead at its floor.
//
// A Searcher is NOT safe for concurrent use: give each goroutine its
// own (they are cheap — buffers are sized lazily on first search).
// It never goes stale: after an Insert, Delete, Compact, or even when
// moved across indexes, the next search revalidates the workspace
// against the index's current state and resizes it when needed.
type Searcher struct {
	ix *Index
	s  core.Scratch
}

// NewSearcher returns a dedicated reusable query engine for the index.
func (ix *Index) NewSearcher() *Searcher {
	return &Searcher{ix: ix}
}

// TopK is Index.TopK on the searcher's private workspace.
func (sr *Searcher) TopK(query, k int) ([]Result, error) {
	return sr.ix.core.TopKScratch(&sr.s, query, k)
}

// TopKWithInfo is Index.TopKWithInfo on the searcher's private
// workspace.
func (sr *Searcher) TopKWithInfo(query, k int) ([]Result, *SearchInfo, error) {
	return sr.ix.core.SearchScratch(&sr.s, query, core.SearchOptions{K: k})
}

// TopKVector is Index.TopKVector on the searcher's private workspace.
func (sr *Searcher) TopKVector(q Vector, k int) ([]Result, error) {
	return sr.ix.core.TopKVectorScratch(&sr.s, q, k)
}

// TopKSet is Index.TopKSet on the searcher's private workspace. (The
// seed expansion itself still allocates one small WeightedQuery slice
// per call; "allocation-free" refers to the search engine's working
// memory.)
func (sr *Searcher) TopKSet(seeds []int, k int) ([]Result, error) {
	wq, err := seedQueries(seeds)
	if err != nil {
		return nil, err
	}
	res, _, err := sr.ix.core.SearchMultiScratch(&sr.s, wq, core.SearchOptions{K: k})
	return res, err
}

// Stats returns index construction statistics.
func (ix *Index) Stats() Stats { return ix.core.Stats() }

// Exact reports whether the index returns exact Manifold Ranking
// scores (MogulE) rather than the incomplete-factorization
// approximation.
func (ix *Index) Exact() bool { return ix.core.Exact() }

// Precision reports the storage precision the index was built (or
// loaded) with.
func (ix *Index) Precision() Precision {
	if ix.core.Factor().F32() {
		return F32
	}
	return F64
}
