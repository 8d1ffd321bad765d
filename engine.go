package mogul

// The shared engine lifecycle of the anchor-graph (EMR) and spectral
// engines: everything a serving engine does that is not ranking maths.
//
// engine[S] owns the common state header (stored points in either
// precision, tombstones and their accounting, base-build size and
// stats), the locks, the version counter, the searcher pool, input
// validation, Insert/Delete/Compact and the auto-compact policy, the
// introspection and shard-surface accessors, the pooled query wrappers,
// and the lock-and-dispatch of Save. searcher[S] owns the read lock and
// the k/id/dimension checks of every query entry point plus the seed
// normalisation. A backend (EMRIndex, SpectralIndex and their
// searchers) supplies only: build state from live points, attach one
// vector, turn seeds or a vector into scores, and encode/decode its
// container sections. The shared code calls a backend once per query or
// mutation, never once per item, so the O(n) scans stay monomorphic.
// docs/ENGINE.md ("Engine lifecycle") is the one-page version.
//
// Locking rule: searches hold mu for reading; mutators take mutMu, then
// mu for writing; Compact holds mutMu throughout but rebuilds off mu,
// so searches proceed against the old state until the swap.

import (
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mogul/internal/binio"
	"mogul/internal/topk"
	"mogul/internal/vec"
)

// engineHeader is the state every backend's state struct embeds.
type engineHeader struct {
	dim int
	// points holds every item ever inserted, by id; dead tombstones. In
	// mixed-precision mode points is nil and the vectors live flattened
	// in pts32 with stride dim.
	points []Vector
	pts32  []float32
	dead   []bool
	// deadCount counts all tombstones; deadBase only those in the base
	// build (the auto-compact policy counts a deleted delta item once:
	// it is already in the inserted-items term). baseN is how many items
	// the base build covers; later ones are delta items until Compact.
	deadCount int
	deadBase  int
	baseN     int
	stats     Stats
}

func (h *engineHeader) hdr() *engineHeader { return h }

// f32 reports whether the state stores its bulk arrays narrowed.
func (h *engineHeader) f32() bool { return h.pts32 != nil }

// numPoints returns the id-space size in either precision.
func (h *engineHeader) numPoints() int {
	if h.pts32 != nil {
		return len(h.pts32) / h.dim
	}
	return len(h.points)
}

func (h *engineHeader) live() int { return h.numPoints() - h.deadCount }

// pointVec returns item i's stored vector. In f64 mode the returned
// slice aliases state storage; in f32 mode it is freshly widened —
// callers that retain it must copy in either case.
func (h *engineHeader) pointVec(i int) Vector {
	if h.pts32 != nil {
		return Vector(vec.Widen64(nil, h.pts32[i*h.dim:(i+1)*h.dim]))
	}
	return h.points[i]
}

// checkItem validates a query item id.
func (h *engineHeader) checkItem(id int) error {
	if n := h.numPoints(); id < 0 || id >= n {
		return fmt.Errorf("mogul: item %d outside [0,%d)", id, n)
	}
	if h.dead[id] {
		return fmt.Errorf("mogul: item %d deleted", id)
	}
	return nil
}

// appendPoint stores v (which the header takes ownership of) as the next
// item id. In f32 mode the stored copy rounds once, like everything else
// in that mode. (A state loaded from a mapped file appends safely: views
// have cap == len, so the first append reallocates onto the heap.)
func (h *engineHeader) appendPoint(v Vector) {
	if h.pts32 != nil {
		for _, x := range v {
			h.pts32 = append(h.pts32, float32(x))
		}
	} else {
		h.points = append(h.points, v)
	}
	h.dead = append(h.dead, false)
}

// narrowPoints flattens the point matrix to float32 rows.
func (h *engineHeader) narrowPoints() {
	h.pts32, _ = vec.Flatten32(h.points)
	h.points = nil
}

// engineState is what the lifecycle needs from a backend's state.
type engineState interface {
	hdr() *engineHeader
	// narrow32 moves a freshly built (always float64) state into
	// mixed-precision storage. Narrowing once at the end is the only
	// lossy step, so an f32 engine differs from its f64 twin by one
	// rounding of each stored value, never by accumulated error.
	narrow32()
}

// backend is the ranking-specific half of an engine; *EMRIndex and
// *SpectralIndex implement it over their own state type.
type backend[S engineState] interface {
	// build runs the offline half over the given points with the
	// engine's recorded recipe, so Insert...Compact converges to exactly
	// what a fresh Build over the live points would produce.
	build(points []Vector) (S, error)
	// attach appends the backend's per-item columns for a vector about
	// to be stored as the next id. Called with mu held for writing.
	attach(st S, v Vector)
	newSearcher() *searcher[S]
	// sections encodes st as the container sections of the given format
	// version. Called with mutMu held and mu held for reading.
	sections(st S, version uint32, align int) []binio.Section
}

// scorer is the ranking-specific half of a searcher. Every method runs
// with the engine's mu held for reading.
type scorer interface {
	// scoreSeeds ranks the live items against in-database seeds
	// (ascending unique ids, all live).
	scoreSeeds(seeds []seedWeight, k int) []Result
	// scoreVector attaches an out-of-sample vector and ranks the live
	// items against it, also returning the raw kernel affinity of the
	// attachment (the density proxy sharded fan-outs scale merges with).
	scoreVector(q Vector, k int) ([]Result, float64)
	// affinity is scoreVector's second result alone.
	affinity(q Vector) float64
	// work reports what the latest scoreSeeds or scoreVector did, in
	// SearchInfo's terms.
	work() SearchInfo
}

type engine[S engineState] struct {
	be    backend[S]
	frame *binio.Frame
	// alpha/seed/autoCompact are the recipe fields both backends record.
	alpha       float64
	seed        int64
	autoCompact float64

	// mu guards st; mutMu serializes mutators so Compact's off-line
	// rebuild never races another Insert/Delete/Compact while searches
	// proceed against the old state.
	mu    sync.RWMutex
	mutMu sync.Mutex
	st    S

	version   atomic.Uint64
	searchers sync.Pool
}

func (e *engine[S]) init(be backend[S], fr *binio.Frame, alpha float64, seed int64, autoCompact float64, st S) {
	e.be, e.frame = be, fr
	e.alpha, e.seed, e.autoCompact = alpha, seed, autoCompact
	e.st = st
	e.version.Store(1)
}

// checkBuildInput validates what every Build* shares and resolves
// opts.Alpha's default.
func checkBuildInput(name string, points []Vector, minPoints int, opts *Options) error {
	if len(points) < minPoints {
		return fmt.Errorf("mogul: %s needs at least %d point(s), got %d", name, minPoints, len(points))
	}
	if opts.Alpha == 0 {
		opts.Alpha = 0.99
	}
	if opts.Alpha <= 0 || opts.Alpha >= 1 {
		return fmt.Errorf("mogul: alpha must lie in (0,1), got %g", opts.Alpha)
	}
	if opts.AutoCompactFraction < 0 || math.IsNaN(opts.AutoCompactFraction) || math.IsInf(opts.AutoCompactFraction, 0) {
		return fmt.Errorf("mogul: auto-compact fraction must be finite and non-negative, got %g", opts.AutoCompactFraction)
	}
	dim := len(points[0])
	if dim == 0 {
		return fmt.Errorf("mogul: %s needs non-empty feature vectors", name)
	}
	for i, pt := range points {
		if len(pt) != dim {
			return fmt.Errorf("mogul: point %d has dim %d, want %d", i, len(pt), dim)
		}
		for _, x := range pt {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("mogul: point %d has non-finite component %g", i, x)
			}
		}
	}
	return nil
}

// Len returns the number of live (searchable) items.
func (e *engine[S]) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.st.hdr().live()
}

// Exact reports false: the engine's scores approximate exact Manifold
// Ranking (through the anchor graph or the truncated eigenbasis).
func (e *engine[S]) Exact() bool { return false }

// Precision reports the storage precision the engine was built (or
// loaded) with.
func (e *engine[S]) Precision() Precision {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.st.hdr().f32() {
		return F32
	}
	return F64
}

// Stats reports what the latest base build did, mapped onto the shared
// Stats shape: NumClusters is the anchor count p (EMR) or the retained
// rank r (spectral), FactorNNZ the dense gram factor or the n x r
// embedding, ClusterTime the k-means run or the graph construction,
// FactorTime the gram factorization or the Lanczos decomposition.
func (e *engine[S]) Stats() Stats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.st.hdr().stats
}

// Delta reports the dynamic state: items inserted since the base build
// and tombstones awaiting compaction.
func (e *engine[S]) Delta() DeltaStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	h := e.st.hdr()
	return DeltaStats{
		BaseItems:  h.baseN,
		DeltaItems: h.numPoints() - h.baseN - (h.deadCount - h.deadBase),
		Tombstones: h.deadCount,
	}
}

// Version is the monotonic mutation counter (same contract as
// Index.Version): unchanged Version means unchanged answers, which is
// what lets the serve layer cache results and invalidate implicitly.
func (e *engine[S]) Version() uint64 { return e.version.Load() }

// IDSpace returns the upper bound of the id space, tombstones
// included (ids of deleted items are retired until Compact renumbers).
func (e *engine[S]) IDSpace() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.st.hdr().numPoints()
}

// Alive reports whether id addresses a live (non-deleted, in-range)
// item.
func (e *engine[S]) Alive(id int) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	h := e.st.hdr()
	return id >= 0 && id < h.numPoints() && !h.dead[id]
}

// LogLen reports 0: the engine keeps no replayable delta log, so
// followers replicate it by snapshot only.
func (e *engine[S]) LogLen() int { return 0 }

// Insert adds a new point without rebuilding and returns its item id.
// The point becomes immediately searchable: it is attached against the
// frozen base build (an H column over the anchor set, or an embedding
// row through its nearest base points) with no refactorization. It is
// scored by every query but does not shape the base structures until
// Compact folds it in, so accuracy degrades gently as the delta grows —
// size the delta with Options.AutoCompactFraction or call Compact. Safe
// for concurrent use with searches.
func (e *engine[S]) Insert(v Vector) (int, error) {
	e.mutMu.Lock()
	defer e.mutMu.Unlock()

	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0, fmt.Errorf("mogul: inserted vector has non-finite component %g", x)
		}
	}
	e.mu.Lock()
	h := e.st.hdr()
	if len(v) != h.dim {
		e.mu.Unlock()
		return 0, fmt.Errorf("mogul: inserted vector has dim %d, want %d", len(v), h.dim)
	}
	id := h.numPoints()
	stored := append(Vector(nil), v...)
	e.be.attach(e.st, stored)
	h.appendPoint(stored)
	needCompact := e.needsCompact()
	e.version.Add(1)
	e.mu.Unlock()

	if needCompact {
		if err := e.compact(); err != nil {
			return id, fmt.Errorf("mogul: auto-compact after insert: %w", err)
		}
	}
	return id, nil
}

// Delete tombstones an item: it stops appearing in results and stops
// being a valid query, its id is never reused, and Compact reclaims
// the storage. Deleting the last live item is refused.
func (e *engine[S]) Delete(id int) error {
	e.mutMu.Lock()
	defer e.mutMu.Unlock()

	e.mu.Lock()
	h := e.st.hdr()
	var err error
	switch n := h.numPoints(); {
	case id < 0 || id >= n:
		err = fmt.Errorf("mogul: item %d outside [0,%d)", id, n)
	case h.dead[id]:
		err = fmt.Errorf("mogul: item %d already deleted", id)
	case h.live() <= 1:
		err = fmt.Errorf("mogul: cannot delete the last live item")
	}
	if err != nil {
		e.mu.Unlock()
		return err
	}
	h.dead[id] = true
	h.deadCount++
	if id < h.baseN {
		h.deadBase++
	}
	needCompact := e.needsCompact()
	e.version.Add(1)
	e.mu.Unlock()

	if needCompact {
		if err := e.compact(); err != nil {
			return fmt.Errorf("mogul: auto-compact after delete: %w", err)
		}
	}
	return nil
}

// needsCompact applies the AutoCompactFraction policy: the pending
// delta is the items inserted since the base build plus the tombstones
// in the base. A deleted delta item must count once, not twice — it is
// already in the inserted-items term — or churny insert-then-delete
// workloads trip compaction at half the configured threshold. Callers
// hold mu (any mode) and mutMu.
func (e *engine[S]) needsCompact() bool {
	if e.autoCompact <= 0 {
		return false
	}
	h := e.st.hdr()
	pending := (h.numPoints() - h.baseN) + h.deadBase
	return float64(pending) > e.autoCompact*float64(h.baseN)
}

// Compact folds the delta into a fresh base: the backend's build re-runs
// over the live points in id order (renumbering ids contiguously from
// zero, exactly as a fresh Build over those points — the rebuild is
// deterministic for the recorded seed). Searches proceed against the
// old state until the swap; mutators queue behind it.
func (e *engine[S]) Compact() error {
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	return e.compact()
}

// compact is Compact with mutMu already held.
func (e *engine[S]) compact() error {
	e.mu.RLock()
	h := e.st.hdr()
	n := h.numPoints()
	if n == h.baseN && h.deadCount == 0 {
		e.mu.RUnlock()
		return nil
	}
	wasF32 := h.f32()
	live := make([]Vector, 0, h.live())
	for i := 0; i < n; i++ {
		if !h.dead[i] {
			live = append(live, h.pointVec(i))
		}
	}
	e.mu.RUnlock()

	// The heavy rebuild runs outside every lock; mutMu keeps the live
	// snapshot authoritative (no mutator can run until the swap). An
	// f32 engine rebuilds from its widened points (exact) in float64
	// and narrows the result, preserving the storage mode.
	fresh, err := e.be.build(live)
	if err != nil {
		return err
	}
	if wasF32 {
		fresh.narrow32()
	}
	e.mu.Lock()
	e.st = fresh
	e.version.Add(1)
	e.mu.Unlock()
	return nil
}

// seedWeight is one entry of a query's seed distribution.
type seedWeight struct {
	id int
	w  float64
}

// normalizeSeeds orders a seed list ascending by id and merges
// duplicates (weights accumulate), in place. The sort is a plain
// insertion sort: seed lists are tiny (a query item, a handful of set
// seeds, or AttachK anchors), and unlike sort.Slice this never boxes
// the slice, keeping the steady-state query path allocation-free.
func normalizeSeeds(s []seedWeight) []seedWeight {
	for i := 1; i < len(s); i++ {
		sw := s[i]
		j := i
		for j > 0 && s[j-1].id > sw.id {
			s[j] = s[j-1]
			j--
		}
		s[j] = sw
	}
	uniq := s[:0]
	for _, sw := range s {
		if len(uniq) > 0 && uniq[len(uniq)-1].id == sw.id {
			uniq[len(uniq)-1].w += sw.w
			continue
		}
		uniq = append(uniq, sw)
	}
	return uniq
}

// searcher is the shared half of EMRSearcher and SpectralSearcher: the
// read lock, the argument checks, the seed list, and the top-k
// collector the backend's scan streams into.
type searcher[S engineState] struct {
	eng   *engine[S]
	be    scorer
	col   topk.Collector
	seeds []seedWeight
}

// resetCollector sizes the collector for a k-result query over the
// current live items.
func (sr *searcher[S]) resetCollector(k int) {
	if live := sr.eng.st.hdr().live(); k > live {
		k = live
	}
	sr.col.Reset(k)
}

// results drains the collector into the ranked answer.
func (sr *searcher[S]) results() []Result {
	items := sr.col.Drain()
	out := make([]Result, len(items))
	for i, it := range items {
		out[i] = Result{Node: it.ID, Score: it.Score}
	}
	return out
}

// topKSeeds answers a seeded query with mu already held: every seed
// carries the given weight (duplicates accumulate).
func (sr *searcher[S]) topKSeeds(seeds []int, weight float64, k int) ([]Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("mogul: K must be positive, got %d", k)
	}
	h := sr.eng.st.hdr()
	sr.seeds = sr.seeds[:0]
	for _, id := range seeds {
		if err := h.checkItem(id); err != nil {
			return nil, err
		}
		sr.seeds = append(sr.seeds, seedWeight{id: id, w: weight})
	}
	sr.seeds = normalizeSeeds(sr.seeds)
	return sr.be.scoreSeeds(sr.seeds, k), nil
}

// topKVector answers an out-of-sample query with mu already held.
func (sr *searcher[S]) topKVector(q Vector, k int) ([]Result, float64, error) {
	if k <= 0 {
		return nil, 0, fmt.Errorf("mogul: K must be positive, got %d", k)
	}
	if dim := sr.eng.st.hdr().dim; len(q) != dim {
		return nil, 0, fmt.Errorf("mogul: query dimension %d, want %d", len(q), dim)
	}
	res, aff := sr.be.scoreVector(q, k)
	return res, aff, nil
}

// TopK ranks database items against an in-database query item, best
// first. The query item itself is included (it typically ranks first).
func (sr *searcher[S]) TopK(query, k int) ([]Result, error) {
	sr.eng.mu.RLock()
	defer sr.eng.mu.RUnlock()
	return sr.topKSeeds([]int{query}, 1, k)
}

// TopKWithInfo is TopK plus the backend's own account of the work (see
// SearchInfo): the EMR engine scores every live item through every
// anchor; the spectral engine counts the embedding rows it evaluated and
// the row blocks its bound entered and skipped.
func (sr *searcher[S]) TopKWithInfo(query, k int) ([]Result, *SearchInfo, error) {
	sr.eng.mu.RLock()
	defer sr.eng.mu.RUnlock()
	res, err := sr.topKSeeds([]int{query}, 1, k)
	if err != nil {
		return nil, nil, err
	}
	info := sr.be.work()
	return res, &info, nil
}

// TopKVector ranks database items against an out-of-sample query
// vector, attached on the fly through the backend's native mechanism
// (anchor weights for EMR, heat-kernel-weighted surrogate seeds for the
// spectral engine); the engine itself is not modified.
func (sr *searcher[S]) TopKVector(q Vector, k int) ([]Result, error) {
	sr.eng.mu.RLock()
	defer sr.eng.mu.RUnlock()
	res, _, err := sr.topKVector(q, k)
	return res, err
}

// TopKSet ranks database items against a set of seed items with equal
// weights 1/len(seeds), so query mass matches a single-item query.
func (sr *searcher[S]) TopKSet(seeds []int, k int) ([]Result, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("mogul: TopKSet needs at least one seed item")
	}
	sr.eng.mu.RLock()
	defer sr.eng.mu.RUnlock()
	return sr.topKSeeds(seeds, 1/float64(len(seeds)), k)
}

func (e *engine[S]) acquire() *searcher[S] {
	if v := e.searchers.Get(); v != nil {
		return v.(*searcher[S])
	}
	return e.be.newSearcher()
}

func (e *engine[S]) release(sr *searcher[S]) { e.searchers.Put(sr) }

// TopK is the searcher's TopK on a pooled searcher.
func (e *engine[S]) TopK(query, k int) ([]Result, error) {
	sr := e.acquire()
	defer e.release(sr)
	return sr.TopK(query, k)
}

// TopKWithInfo is the searcher's TopKWithInfo on a pooled searcher.
func (e *engine[S]) TopKWithInfo(query, k int) ([]Result, *SearchInfo, error) {
	sr := e.acquire()
	defer e.release(sr)
	return sr.TopKWithInfo(query, k)
}

// TopKVector is the searcher's TopKVector on a pooled searcher.
func (e *engine[S]) TopKVector(q Vector, k int) ([]Result, error) {
	sr := e.acquire()
	defer e.release(sr)
	return sr.TopKVector(q, k)
}

// TopKSet is the searcher's TopKSet on a pooled searcher.
func (e *engine[S]) TopKSet(seeds []int, k int) ([]Result, error) {
	sr := e.acquire()
	defer e.release(sr)
	return sr.TopKSet(seeds, k)
}

// TopKBatch answers many in-database queries on a bounded worker pool
// (parallelism <= 0 selects GOMAXPROCS); results land at their query's
// index and per-query failures are recorded, never fatal.
func (e *engine[S]) TopKBatch(queries []int, k, parallelism int) []BatchResult {
	return topKBatch(e.newQuerier, queries, k, parallelism)
}

// TopKVectorBatch answers many out-of-sample queries on a bounded
// worker pool; see TopKBatch.
func (e *engine[S]) TopKVectorBatch(queries []Vector, k, parallelism int) []BatchResult {
	return topKVectorBatch(e.newQuerier, queries, k, parallelism)
}

func (e *engine[S]) newQuerier() Querier { return e.be.newSearcher() }

// TopKWithVector is TopK plus the query item's stored vector and the
// engine's raw kernel affinity to it — what the distributed
// coordinator needs from the owner shard in one round trip to probe
// the remaining shards and scale their answers. All three are read
// under one read-locked section, so a concurrent Compact cannot pair
// results from one state with a vector from another.
func (e *engine[S]) TopKWithVector(query, k int) ([]Result, Vector, float64, error) {
	sr := e.acquire()
	defer e.release(sr)
	e.mu.RLock()
	defer e.mu.RUnlock()
	res, err := sr.topKSeeds([]int{query}, 1, k)
	if err != nil {
		return nil, nil, 0, err
	}
	qvec := append(Vector(nil), e.st.hdr().pointVec(query)...)
	return res, qvec, sr.be.affinity(qvec), nil
}

// TopKVectorWithAffinity is TopKVector plus the engine's raw kernel
// affinity to the query (the unnormalized kernel mass of the
// attachment), the same density proxy the sharded fan-out scales
// cross-shard merges with.
func (e *engine[S]) TopKVectorWithAffinity(q Vector, k int) ([]Result, float64, error) {
	sr := e.acquire()
	defer e.release(sr)
	e.mu.RLock()
	defer e.mu.RUnlock()
	return sr.topKVector(q, k)
}

// TopKSetWeighted ranks items against seed items all carrying the
// given weight (the coordinator's cross-shard set query, where the
// global 1/len(seeds) is applied before the fan-out).
func (e *engine[S]) TopKSetWeighted(seeds []int, weight float64, k int) ([]Result, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("mogul: TopKSetWeighted needs at least one seed item")
	}
	sr := e.acquire()
	defer e.release(sr)
	e.mu.RLock()
	defer e.mu.RUnlock()
	return sr.topKSeeds(seeds, weight, k)
}

// --- Persistence shared by the MOGULEMR and MOGULSPC containers ---
//
// Both containers exist in a legacy and a precision-aware layout
// (docs/FORMAT.md). Version 1 is what plain float64 saves of the
// spectral engine write, kept so existing files reproduce byte for
// byte. Version 2 onwards — written for f32 engines and aligned saves,
// and by the EMR engine always (its version 3, emr_persist.go) —
// additionally records a precision flag and an alignment in the
// metadata, stores the points as ONE flat row-major array, and writes
// the bulk arrays as float32 when the engine is mixed-precision; with a
// positive alignment every large array starts on that boundary, so a
// Load*Bytes over an mmap'd image hands out zero-copy views. Which
// version a save writes is the frame's call (binio.Frame.SaveVersion).
const (
	engineFormatVersion     = 1
	engineFormatVersionPrec = 2
)

// Save writes the engine in its versioned container format. Mutators
// block for the duration; searches proceed. A float64 spectral engine
// writes version 1, byte-identical to previous releases, and a
// mixed-precision one version 2 with its arrays narrowed; the EMR
// engine writes version 3 in either precision.
func (e *engine[S]) Save(w io.Writer) error { return e.save(w, 0) }

// SaveAligned writes the engine in the aligned layout of its newest
// container version: large arrays start on align-byte boundaries (use
// the page size for mmap sharing). Works in either precision; align
// must be a positive power of two.
func (e *engine[S]) SaveAligned(w io.Writer, align int) error {
	if align <= 0 || align&(align-1) != 0 {
		return fmt.Errorf("mogul: alignment %d is not a positive power of two", align)
	}
	return e.save(w, align)
}

// SaveFile writes the engine to a file via Save with the same atomic
// temp-file-and-rename protocol as Index.SaveFile.
func (e *engine[S]) SaveFile(path string) error {
	return saveFileAtomic(path, e.Save)
}

// SaveFileAligned is SaveAligned to a file with the same atomic
// temp-file-and-rename protocol as SaveFile.
func (e *engine[S]) SaveFileAligned(path string, align int) error {
	return saveFileAtomic(path, func(w io.Writer) error { return e.SaveAligned(w, align) })
}

func (e *engine[S]) save(w io.Writer, align int) error {
	// mutMu freezes the delta state so the two-pass section framing
	// sees identical bytes; the read lock covers the reads themselves.
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	e.mu.RLock()
	defer e.mu.RUnlock()

	version := e.frame.SaveVersion(e.st.hdr().f32(), align)
	sections := e.be.sections(e.st, version, align)
	for i := range sections {
		// The engine containers align every section (MOGULIDX only two).
		sections[i].Align = align
	}
	_, err := binio.WriteContainer(w, e.frame.Magic, version, sections)
	return err
}

// engineMeta is the part of the metadata section both containers carry:
// the head (alpha, seed, auto-compact fraction) opens the section, the
// backend's recipe and shapes follow, and the tail closes it. Decoding
// also collects the common state into hdr as its sections arrive.
type engineMeta struct {
	alpha       float64
	seed        int
	autoCompact float64
	n           int
	f32         bool
	align       int
	// hdr.dim and hdr.baseN come straight from the metadata.
	hdr engineHeader
}

func (e *engine[S]) writeMetaHead(sw *binio.Writer) {
	sw.Float64(e.alpha)
	sw.Int(int(e.seed))
	sw.Float64(e.autoCompact)
}

func (h *engineHeader) writeMetaTail(sw *binio.Writer, version uint32, align int) {
	sw.Int(h.baseN)
	sw.Int(h.numPoints())
	sw.Int(int(h.stats.ClusterTime))
	sw.Int(int(h.stats.FactorTime))
	if version >= engineFormatVersionPrec {
		prec := 0
		if h.f32() {
			prec = 1
		}
		sw.Int(prec)
		sw.Int(align)
	}
}

func (m *engineMeta) readHead(r *binio.Reader) {
	m.alpha = r.Float64()
	m.seed = r.Int()
	m.autoCompact = r.Float64()
}

// readTail decodes the tail and validates every shared field; rowLen is
// the backend's per-item row width (bounding n*rowLen like n*dim).
func (m *engineMeta) readTail(r *binio.Reader, version uint32, kind string, rowLen int) error {
	m.hdr.baseN = r.Int()
	m.n = r.Int()
	clusterTime := r.Int()
	factorTime := r.Int()
	prec := 0
	if version >= engineFormatVersionPrec {
		prec = r.Int()
		m.align = r.Int()
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("mogul: decoding %s metadata: %w", kind, err)
	}
	bad := func(format string, args ...any) error {
		return fmt.Errorf("mogul: corrupt %s metadata: %s", kind, fmt.Sprintf(format, args...))
	}
	switch {
	case math.IsNaN(m.alpha) || m.alpha <= 0 || m.alpha >= 1:
		return bad("alpha %g", m.alpha)
	case math.IsNaN(m.autoCompact) || math.IsInf(m.autoCompact, 0) || m.autoCompact < 0:
		return bad("auto-compact fraction %g", m.autoCompact)
	case m.hdr.dim < 1 || m.hdr.dim > binio.MaxCount:
		return bad("dimension %d", m.hdr.dim)
	case m.n < 1 || m.n > binio.MaxCount:
		return bad("%d points", m.n)
	case m.hdr.baseN < 1 || m.hdr.baseN > m.n:
		return bad("base size %d of %d points", m.hdr.baseN, m.n)
	case clusterTime < 0 || factorTime < 0:
		return bad("negative build timings")
	case prec != 0 && prec != 1:
		return bad("precision flag %d", prec)
	case m.align < 0 || m.align > binio.MaxCount || (m.align != 0 && m.align&(m.align-1) != 0):
		return bad("alignment %d", m.align)
	}
	// Version 2 stores flat n*dim and n*rowLen arrays whose expected
	// lengths must not overflow.
	if version >= engineFormatVersionPrec && rowLen >= 1 {
		if m.n > binio.MaxCount/m.hdr.dim {
			return bad("%d points of dim %d", m.n, m.hdr.dim)
		}
		if m.n > binio.MaxCount/rowLen {
			return bad("%d points of row width %d", m.n, rowLen)
		}
	}
	m.f32 = prec == 1
	m.hdr.stats = Stats{
		NumNodes:    m.hdr.baseN,
		ClusterTime: time.Duration(clusterTime),
		FactorTime:  time.Duration(factorTime),
	}
	return nil
}

// writePoints encodes the stored vectors: one length-prefixed row per
// point in version 1, one flat matrix (float32 when narrowed) in
// version 2.
func (h *engineHeader) writePoints(sw *binio.Writer, version uint32) error {
	switch {
	case version < engineFormatVersionPrec:
		for _, pt := range h.points {
			sw.Floats(pt)
		}
	case h.f32():
		sw.Float32s(h.pts32)
	default:
		flat := make([]float64, 0, len(h.points)*h.dim)
		for _, pt := range h.points {
			flat = append(flat, pt...)
		}
		sw.Floats(flat)
	}
	return sw.Err()
}

// readPoints decodes what writePoints wrote into hdr. Version 1 scans
// every component for finiteness; version 2 does not — a NaN there
// degrades a score but can never panic, and scanning would fault in
// every page of a mapped image.
func (m *engineMeta) readPoints(r *binio.Reader, version uint32) error {
	n, dim := m.n, m.hdr.dim
	if version < engineFormatVersionPrec {
		// Grow as rows arrive rather than trusting n for the allocation.
		points := make([]Vector, 0, min(n, 1<<16))
		for i := 0; i < n; i++ {
			v := r.Floats(binio.MaxCount)
			if err := r.Err(); err != nil {
				return fmt.Errorf("mogul: decoding point %d: %w", i, err)
			}
			if len(v) != dim {
				return fmt.Errorf("mogul: point %d has dim %d, want %d", i, len(v), dim)
			}
			for _, x := range v {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return fmt.Errorf("mogul: point %d has non-finite component", i)
				}
			}
			points = append(points, v)
		}
		m.hdr.points = points
		return nil
	}
	var flat []float64
	got := 0
	if m.f32 {
		m.hdr.pts32 = r.Float32sView(binio.MaxCount)
		got = len(m.hdr.pts32)
	} else {
		flat = r.FloatsView(binio.MaxCount)
		got = len(flat)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("mogul: decoding point matrix: %w", err)
	}
	if got != n*dim {
		return fmt.Errorf("mogul: point matrix carries %d values, want %d", got, n*dim)
	}
	if !m.f32 {
		m.hdr.points = make([]Vector, n)
		for i := range m.hdr.points {
			m.hdr.points[i] = Vector(flat[i*dim : (i+1)*dim : (i+1)*dim])
		}
	}
	return nil
}

// writeTombstones encodes the dead set as an ascending id list.
func (h *engineHeader) writeTombstones(sw *binio.Writer) {
	dead := make([]int, 0, h.deadCount)
	for id, d := range h.dead {
		if d {
			dead = append(dead, id)
		}
	}
	sw.Ints(dead)
}

// readTombstones validates a decoded dead list (strictly ascending, in
// range, at least one survivor) and expands it into hdr.
func (m *engineMeta) readTombstones(deadIDs []int) error {
	dead := make([]bool, m.n)
	prev := -1
	for _, id := range deadIDs {
		if id <= prev || id >= m.n {
			return fmt.Errorf("mogul: corrupt tombstone list (id %d after %d, %d points)", id, prev, m.n)
		}
		dead[id] = true
		if id < m.hdr.baseN {
			m.hdr.deadBase++
		}
		prev = id
	}
	if len(deadIDs) >= m.n {
		return fmt.Errorf("mogul: every item tombstoned")
	}
	m.hdr.dead = dead
	m.hdr.deadCount = len(deadIDs)
	return nil
}
