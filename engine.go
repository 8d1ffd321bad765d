package mogul

// The shared engine lifecycle of the three single-node engines — the
// paper's graph engine (Index), the anchor-graph engine (EMRIndex) and
// the spectral engine (SpectralIndex): everything a serving engine does
// that is not ranking maths.
//
// engine[S] owns the common state header (stored points in either
// precision, tombstones and their accounting, base-build size and
// stats), the locks, the version counter and the replication log
// (deltalog.go), the searcher pool, input validation,
// Insert/Delete/Compact and the auto-compact policy, the introspection
// and shard-surface accessors, the pooled query wrappers, and the
// lock-and-dispatch of Save. searcher[S] owns the read lock and the
// k/id/dimension checks of every query entry point. A backend (Index,
// EMRIndex, SpectralIndex and their searchers) supplies only: build
// state from live points, attach one vector, turn seeds or a vector into
// scores, and encode/decode its container sections. The shared code
// calls a backend once per query or mutation, never once per item, so
// the O(n) scans stay monomorphic. docs/ENGINE.md ("Engine lifecycle")
// is the one-page version.
//
// Locking rule: searches hold mu for reading; mutators take mutMu, then
// mu for writing — Insert computes its attachment under the read lock
// first, so only the appends block searches; Compact holds mutMu
// throughout but rebuilds off mu, so searches proceed against the old
// state until the swap.

import (
	"fmt"
	"io"
	"math"
	"slices"
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
	// points holds every item ever inserted, by id; dead tombstones. A
	// backend whose base build already stores its rows (the graph engine's
	// knn.Graph, mapped views included) sets ext to their count: points
	// (always float64 in such a state) then holds ids ext and up only, and
	// the backend's state answers pointVec below ext.
	points vec.Rows
	ext    int
	dead   []bool
	// deadCount counts all tombstones; deadBase only those in the base
	// build (the auto-compact policy counts a deleted delta item once:
	// it is already in the inserted-items term). baseN is how many items
	// the base build covers; later ones are delta items until Compact.
	deadCount int
	deadBase  int
	baseN     int
	stats     Stats
	// liveDelta lists the live delta items in ascending id order: what
	// the EMR and spectral scans walk instead of every delta id, so
	// tombstoned delta items cost a read nothing. Insert appends, Delete
	// removes, and a loaded state derives it (deriveLiveDelta); it is
	// never persisted.
	liveDelta []int
}

func (h *engineHeader) hdr() *engineHeader { return h }

// deriveLiveDelta rebuilds liveDelta from the tombstones of an id space
// of n items.
func (h *engineHeader) deriveLiveDelta(n int) {
	h.liveDelta = nil
	for i := h.baseN; i < n; i++ {
		if !h.dead[i] {
			h.liveDelta = append(h.liveDelta, i)
		}
	}
}

// f32 reports whether the state stores its bulk arrays narrowed.
func (h *engineHeader) f32() bool { return h.points.F32() }

// numPoints returns the id-space size.
func (h *engineHeader) numPoints() int { return h.ext + h.points.Len() }

func (h *engineHeader) live() int { return h.numPoints() - h.deadCount }

// pointVec returns item i's stored vector. In f64 mode the returned
// slice aliases state storage; in f32 mode it is freshly widened —
// callers that retain it must copy in either case.
func (h *engineHeader) pointVec(i int) Vector { return h.points.Row(i-h.ext, nil) }

// engineState is what the lifecycle needs from a backend's state.
type engineState interface {
	hdr() *engineHeader
	// f32 and pointVec are the header's unless the backend's base build
	// holds the precision and the base rows itself.
	f32() bool
	pointVec(i int) Vector
}

// backend is the ranking-specific half of an engine; *Index's core
// field, *EMRIndex and *SpectralIndex implement it over their own state
// type.
type backend[S engineState] interface {
	// build runs the offline half over the given points with the
	// engine's recorded recipe, so Insert...Compact converges to exactly
	// what a fresh Build over the live points would produce. The build
	// runs in float64; with f32 set it ends in mixed-precision storage,
	// narrowed once before anything is derived from the stored values.
	// Narrowing once at the end is the only lossy step, so an f32 engine
	// differs from its f64 twin by one rounding of each stored value,
	// never by accumulated error.
	build(points []Vector, f32 bool) (S, error)
	// attach computes the backend's per-item columns for a vector about
	// to be stored as the next id, into scratch the backend keeps. Called
	// with mutMu held and mu held for reading: searches proceed.
	attach(st S, v Vector) error
	// commit appends what the latest attach computed. Called with mu
	// held for writing.
	commit(st S)
	newSearcher() *searcher[S]
	// sections encodes st as the container sections of the given format
	// version. Called with mutMu held and mu held for reading.
	sections(st S, version uint32, align int) []binio.Section
}

// scorer is the ranking-specific half of a searcher. Every method runs
// with the engine's mu held for reading.
type scorer interface {
	// scoreSeeds ranks the live items against in-database seeds, all
	// live, in the caller's order and with its repeats (normalizeSeeds
	// orders and merges them for a backend that wants that).
	scoreSeeds(seeds []seedWeight, k int) []Result
	// scoreVector attaches an out-of-sample vector and ranks the live
	// items against it, also returning the raw kernel affinity of the
	// attachment (the density proxy sharded fan-outs scale merges with).
	scoreVector(q Vector, k int) ([]Result, float64, error)
	// affinity is scoreVector's second result alone.
	affinity(q Vector) (float64, error)
	// work reports what the latest scoreSeeds or scoreVector did, in
	// SearchInfo's terms.
	work() SearchInfo
}

type engine[S engineState] struct {
	be    backend[S]
	frame *binio.Frame
	// tag prefixes the errors about a caller's arguments: "core" on the
	// graph engine, whose HTTP transcripts pin that spelling, "mogul" on
	// the other two.
	tag string
	// alpha/seed/autoCompact are the recipe fields every backend records.
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

	// log records every mutation since logStart (deltalog.go): the
	// replication feed followers tail via EntriesSince. logStart is the
	// version the retained log is anchored at (entries cover (logStart,
	// version]); 0 means "nothing logged or truncated yet", i.e. anchored
	// at the initial version. Both guarded by mu.
	log      []LogEntry
	logStart uint64
}

func (e *engine[S]) init(be backend[S], fr *binio.Frame, tag string, alpha float64, seed int64, autoCompact float64, st S) {
	e.be, e.frame, e.tag = be, fr, tag
	e.alpha, e.seed, e.autoCompact = alpha, seed, autoCompact
	e.st = st
	e.version.Store(1)
}

// errf builds an error about a caller's argument, under the engine's tag.
func (e *engine[S]) errf(format string, args ...any) error {
	return fmt.Errorf(e.tag+": "+format, args...)
}

// checkItem validates a query item id. Callers hold mu.
func (e *engine[S]) checkItem(id int) error {
	h := e.st.hdr()
	if n := h.numPoints(); id < 0 || id >= n {
		return e.errf("query node %d outside [0,%d)", id, n)
	}
	if h.dead[id] {
		return e.errf("query node %d is deleted", id)
	}
	return nil
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

// Exact reports false: an engine's scores approximate exact Manifold
// Ranking (through the anchor graph, the truncated eigenbasis or the
// incomplete factorization) unless its backend says otherwise
// (Index.Exact).
func (e *engine[S]) Exact() bool { return false }

// Precision reports the storage precision the engine was built (or
// loaded) with.
func (e *engine[S]) Precision() Precision {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.st.f32() {
		return F32
	}
	return F64
}

// Stats reports what the latest base build did. The graph engine fills
// every field; the other two map onto the shared shape: NumClusters is
// the anchor count p (EMR) or the retained rank r (spectral), FactorNNZ
// the dense gram factor or the n x r embedding, ClusterTime the k-means
// run or the graph construction, FactorTime the gram factorization or
// the Lanczos decomposition.
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

// Version returns the engine's monotonic mutation version: it starts at
// 1 and increases on every Insert, Delete, and Compact (auto-compactions
// included), always before the mutation's write lock is released.
// Reading it is a single atomic load, so callers can stamp derived
// artifacts — cached query results, exported snapshots — and later
// detect "the index changed under me" without re-running the query. Two
// equal readings bracket a window with no visible mutation.
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

// DeadIDs snapshots the id space (IDSpace) and the tombstoned ids in it,
// ascending, under one read lock: every other id below space is Alive.
// dead is empty, not nil, when every item is live.
func (e *engine[S]) DeadIDs() (space int, dead []int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	h := e.st.hdr()
	return h.numPoints(), h.deadIDs()
}

// Insert adds a new point without rebuilding and returns its item id.
// The point becomes immediately searchable: it is attached against the
// frozen base build through the out-of-sample extension (surrogate
// neighbours in the graph, an H column over the anchor set, or an
// embedding row through its nearest base points) with no
// refactorization. It is scored by every query and can itself serve as
// one, but does not shape the base structures until Compact folds it in,
// so accuracy degrades gently as the delta grows — size the delta with
// Options.AutoCompactFraction or call Compact. When that fraction makes
// this insert compact, the returned id is the item's id in the new
// numbering (the youngest live item, so the last). Safe for concurrent
// use with searches.
func (e *engine[S]) Insert(v Vector) (int, error) {
	e.mutMu.Lock()
	defer e.mutMu.Unlock()

	if err := e.checkFinite("inserted", v); err != nil {
		return 0, err
	}
	// mutMu keeps the state this attachment is computed against
	// authoritative until the commit below.
	e.mu.RLock()
	h := e.st.hdr()
	var err error
	if len(v) != h.dim {
		err = e.errf("inserted vector has dim %d, want %d", len(v), h.dim)
	} else {
		err = e.be.attach(e.st, v)
	}
	e.mu.RUnlock()
	if err != nil {
		return 0, err
	}
	stored := append(Vector(nil), v...)

	e.mu.Lock()
	id := h.numPoints()
	e.be.commit(e.st)
	// In f32 mode the stored copy rounds once, like everything else in
	// that mode; a mapped state's rows move to the heap (vec.Rows.Append).
	h.points.Append(stored)
	h.dead = append(h.dead, false)
	h.liveDelta = append(h.liveDelta, id)
	e.bump(OpInsert, id, stored)
	e.mu.Unlock()

	// The insert has happened; a failed auto-compaction leaves the engine
	// fully consistent (the swap happens only on success), so it is not
	// this call's error: the next mutation retries and an explicit
	// Compact surfaces it.
	if e.autoCompacted() {
		// Compaction renumbers: the just-inserted point is the youngest
		// live item, so it now carries the last id. The log entry keeps
		// the id stamped above, which is what a replaying follower's own
		// Insert hands back before its own compaction.
		id = e.Len() - 1
	}
	return id, nil
}

// checkFinite refuses a vector with a NaN or infinite component: no
// distance to it can be ordered, so no attachment of it is meaningful.
func (e *engine[S]) checkFinite(what string, v Vector) error {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return e.errf("%s vector has non-finite component %g", what, x)
		}
	}
	return nil
}

// Delete tombstones an item: it stops appearing in results and stops
// being a valid query, its id is never reused, and Compact reclaims
// the storage. Deleting an unknown or already-deleted id, or the last
// live item, is refused.
func (e *engine[S]) Delete(id int) error {
	e.mutMu.Lock()
	defer e.mutMu.Unlock()

	e.mu.Lock()
	h := e.st.hdr()
	var err error
	switch n := h.numPoints(); {
	case id < 0 || id >= n:
		err = e.errf("item %d outside [0,%d)", id, n)
	case h.dead[id]:
		err = e.errf("item %d already deleted", id)
	case h.live() <= 1:
		err = e.errf("cannot delete the last live item")
	}
	if err != nil {
		e.mu.Unlock()
		return err
	}
	h.dead[id] = true
	h.deadCount++
	if id < h.baseN {
		h.deadBase++
	} else if at, ok := slices.BinarySearch(h.liveDelta, id); ok {
		h.liveDelta = slices.Delete(h.liveDelta, at, at+1)
	}
	e.bump(OpDelete, id, nil)
	e.mu.Unlock()

	e.autoCompacted()
	return nil
}

// autoCompacted applies the AutoCompactFraction policy after a mutation
// and reports whether it compacted: the pending delta is the items
// inserted since the base build plus the tombstones in the base. A
// deleted delta item must count once, not twice — it is already in the
// inserted-items term — or churny insert-then-delete workloads trip
// compaction at half the configured threshold. Callers hold mutMu.
func (e *engine[S]) autoCompacted() bool {
	if e.autoCompact <= 0 {
		return false
	}
	e.mu.RLock()
	h := e.st.hdr()
	pending := (h.numPoints() - h.baseN) + h.deadBase
	need := float64(pending) > e.autoCompact*float64(h.baseN)
	e.mu.RUnlock()
	return need && e.compact() == nil
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
	wasF32 := e.st.f32()
	live := make([]Vector, 0, h.live())
	for i := 0; i < n; i++ {
		if !h.dead[i] {
			live = append(live, e.st.pointVec(i))
		}
	}
	e.mu.RUnlock()

	// The heavy rebuild runs outside every lock; mutMu keeps the live
	// snapshot authoritative (no mutator can run until the swap). An
	// f32 engine rebuilds from its widened points (exact) in float64
	// and narrows the result, preserving the storage mode.
	fresh, err := e.be.build(live, wasF32)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.st = fresh
	e.bump(OpCompact, 0, nil)
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
// carries the given weight (repeats accumulate). A set query's error
// says that it is a seed that was refused.
func (sr *searcher[S]) topKSeeds(seeds []int, weight float64, k int, set bool) ([]Result, error) {
	if k <= 0 {
		return nil, sr.eng.errf("K must be positive, got %d", k)
	}
	sr.seeds = sr.seeds[:0]
	for _, id := range seeds {
		if err := sr.eng.checkItem(id); err != nil {
			if set {
				err = sr.eng.errf("seed: %w", err)
			}
			return nil, err
		}
		sr.seeds = append(sr.seeds, seedWeight{id: id, w: weight})
	}
	return sr.be.scoreSeeds(sr.seeds, k), nil
}

// topKVector answers an out-of-sample query with mu already held.
func (sr *searcher[S]) topKVector(q Vector, k int) ([]Result, float64, error) {
	if k <= 0 {
		return nil, 0, sr.eng.errf("K must be positive, got %d", k)
	}
	if dim := sr.eng.st.hdr().dim; len(q) != dim {
		return nil, 0, sr.eng.errf("query dimension %d, want %d", len(q), dim)
	}
	if err := sr.eng.checkFinite("query", q); err != nil {
		return nil, 0, err
	}
	return sr.be.scoreVector(q, k)
}

// TopK ranks database items against an in-database query item, best
// first. The query item itself is included (it typically ranks first);
// callers that want "results other than the query" can skip it.
func (sr *searcher[S]) TopK(query, k int) ([]Result, error) {
	sr.eng.mu.RLock()
	defer sr.eng.mu.RUnlock()
	return sr.topKSeeds([]int{query}, 1, k, false)
}

// TopKWithInfo is TopK plus the backend's own account of the work (see
// SearchInfo): the graph engine counts the clusters its upper bounds
// pruned and scanned; the EMR engine counts the rows it scored and the
// anchor cells its bound entered and skipped; the spectral engine counts
// the embedding rows it evaluated and the row blocks its bound entered
// and skipped.
func (sr *searcher[S]) TopKWithInfo(query, k int) ([]Result, *SearchInfo, error) {
	sr.eng.mu.RLock()
	defer sr.eng.mu.RUnlock()
	res, err := sr.topKSeeds([]int{query}, 1, k, false)
	if err != nil {
		return nil, nil, err
	}
	info := sr.be.work()
	return res, &info, nil
}

// TopKVector ranks database items against an out-of-sample query
// vector, attached on the fly through the backend's native mechanism
// (Section 4.6.2's surrogate neighbours in the nearest clusters for the
// graph engine, anchor weights for EMR, heat-kernel-weighted surrogate
// seeds for the spectral engine); the engine itself is not modified.
func (sr *searcher[S]) TopKVector(q Vector, k int) ([]Result, error) {
	res, _, err := sr.TopKVectorWithAffinity(q, k)
	return res, err
}

// TopKSet ranks database items against a set of seed items with equal
// weights 1/len(seeds), so query mass matches a single-item query —
// "find items like these". Seeds typically rank first; skip them in the
// output if undesired.
func (sr *searcher[S]) TopKSet(seeds []int, k int) ([]Result, error) {
	return sr.topKSet("TopKSet", seeds, 1/float64(len(seeds)), k)
}

// TopKWithVector is TopK plus the query item's stored vector and the
// engine's raw kernel affinity to it — what a fan-out needs from the
// owner shard in one call (one round trip, for the distributed
// coordinator) to probe the remaining shards and scale their answers.
// All three are read under one read-locked section, so a concurrent
// Compact cannot pair results from one state with a vector from
// another. The vector may alias engine storage; treat as read-only.
func (sr *searcher[S]) TopKWithVector(query, k int) ([]Result, Vector, float64, error) {
	sr.eng.mu.RLock()
	defer sr.eng.mu.RUnlock()
	res, err := sr.topKSeeds([]int{query}, 1, k, false)
	if err != nil {
		return nil, nil, 0, err
	}
	qvec := sr.eng.st.pointVec(query)
	aff, err := sr.be.affinity(qvec)
	if err != nil {
		return nil, nil, 0, err
	}
	return res, qvec, aff, nil
}

// TopKVectorWithAffinity is TopKVector plus the engine's raw kernel
// affinity to the query (the unnormalized kernel mass of the
// attachment), the density proxy a sharded fan-out scales cross-shard
// merges with.
func (sr *searcher[S]) TopKVectorWithAffinity(q Vector, k int) ([]Result, float64, error) {
	sr.eng.mu.RLock()
	defer sr.eng.mu.RUnlock()
	return sr.topKVector(q, k)
}

// TopKSetWeighted ranks items against seed items all carrying the
// given weight — the per-shard half of a fan-out's set query, where each
// shard searches the seeds it owns at the global weight 1/len(all
// seeds) so query mass stays consistent across the fan-out.
func (sr *searcher[S]) TopKSetWeighted(seeds []int, weight float64, k int) ([]Result, error) {
	return sr.topKSet("TopKSetWeighted", seeds, weight, k)
}

func (sr *searcher[S]) topKSet(name string, seeds []int, weight float64, k int) ([]Result, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("mogul: %s needs at least one seed item", name)
	}
	sr.eng.mu.RLock()
	defer sr.eng.mu.RUnlock()
	return sr.topKSeeds(seeds, weight, k, true)
}

func (e *engine[S]) acquire() *searcher[S] {
	if v := e.searchers.Get(); v != nil {
		return v.(*searcher[S])
	}
	return e.be.newSearcher()
}

func (e *engine[S]) release(sr *searcher[S]) { e.searchers.Put(sr) }

// TopK returns the k database items with the highest Manifold Ranking
// scores for an in-database query item, best first, the query itself
// included (searcher.TopK on a pooled searcher).
func (e *engine[S]) TopK(query, k int) ([]Result, error) {
	sr := e.acquire()
	defer e.release(sr)
	return sr.TopK(query, k)
}

// TopKWithInfo is TopK plus the engine's work counters
// (searcher.TopKWithInfo on a pooled searcher).
func (e *engine[S]) TopKWithInfo(query, k int) ([]Result, *SearchInfo, error) {
	sr := e.acquire()
	defer e.release(sr)
	return sr.TopKWithInfo(query, k)
}

// TopKVector ranks database items for a query vector that is not in the
// database; the engine is not modified (searcher.TopKVector on a pooled
// searcher).
func (e *engine[S]) TopKVector(q Vector, k int) ([]Result, error) {
	sr := e.acquire()
	defer e.release(sr)
	return sr.TopKVector(q, k)
}

// TopKSet ranks database items against a set of equally weighted seed
// items (searcher.TopKSet on a pooled searcher).
func (e *engine[S]) TopKSet(seeds []int, k int) ([]Result, error) {
	sr := e.acquire()
	defer e.release(sr)
	return sr.TopKSet(seeds, k)
}

// TopKWithVector is TopK plus the query item's stored vector and the
// engine's affinity to it (searcher.TopKWithVector on a pooled searcher).
func (e *engine[S]) TopKWithVector(query, k int) ([]Result, Vector, float64, error) {
	sr := e.acquire()
	defer e.release(sr)
	return sr.TopKWithVector(query, k)
}

// TopKVectorWithAffinity is TopKVector plus the engine's raw kernel
// affinity to the query (searcher.TopKVectorWithAffinity on a pooled
// searcher).
func (e *engine[S]) TopKVectorWithAffinity(q Vector, k int) ([]Result, float64, error) {
	sr := e.acquire()
	defer e.release(sr)
	return sr.TopKVectorWithAffinity(q, k)
}

// TopKSetWeighted ranks items against seed items all carrying the given
// weight (searcher.TopKSetWeighted on a pooled searcher).
func (e *engine[S]) TopKSetWeighted(seeds []int, weight float64, k int) ([]Result, error) {
	sr := e.acquire()
	defer e.release(sr)
	return sr.TopKSetWeighted(seeds, weight, k)
}

// TopKBatch answers many in-database queries on a bounded worker pool
// (parallelism <= 0 selects GOMAXPROCS), each worker pinning one private
// searcher; results land at their query's index and per-query failures
// are recorded, never fatal. Searches only take the read lock, so the
// batch parallelizes and is safe to run concurrently with
// Insert/Delete/Compact: each query observes a consistent state.
func (e *engine[S]) TopKBatch(queries []int, k, parallelism int) []BatchResult {
	return topKBatch(e.newQuerier, queries, k, parallelism)
}

// TopKVectorBatch answers many out-of-sample queries on a bounded
// worker pool; see TopKBatch. The i-th BatchResult's Query field holds i
// (the position in the input slice).
func (e *engine[S]) TopKVectorBatch(queries []Vector, k, parallelism int) []BatchResult {
	return topKVectorBatch(e.newQuerier, queries, k, parallelism)
}

func (e *engine[S]) newQuerier() Querier { return e.be.newSearcher() }

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

// Save writes the engine in its versioned container format
// (docs/FORMAT.md): everything the build computed is persisted, so a
// loaded engine is immediately search-ready — the precomputation is
// query independent, which turns the build into a one-off. Mutators
// block for the duration; searches proceed. A float64 graph index
// writes MOGULIDX version 3 and a float64 spectral engine MOGULSPC
// version 1, both byte-identical to previous releases, their
// mixed-precision forms versions 4 and 2 with the bulk arrays narrowed;
// the EMR engine writes MOGULEMR version 3 in either precision.
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

// SaveFile writes the engine to a file via Save. The file is written to
// a temporary sibling and renamed into place, so a crash mid-save never
// leaves a truncated file at path. It is created with mode 0644
// regardless of umask; callers that need it private can Save to a file
// they opened themselves.
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

	version := e.frame.SaveVersion(e.st.f32(), align)
	_, err := binio.WriteContainer(w, e.frame.Magic, version, e.be.sections(e.st, version, align))
	return err
}

// alignAll marks every section for the aligned layout, as the MOGULEMR
// and MOGULSPC containers do (MOGULIDX aligns only its two bulk ones).
func alignAll(sections []binio.Section, align int) []binio.Section {
	for i := range sections {
		sections[i].Align = align
	}
	return sections
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

// readTail decodes the tail and validates every shared field.
func (m *engineMeta) readTail(r *binio.Reader, version uint32, kind string) error {
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
	m.f32 = prec == 1
	m.hdr.stats = Stats{
		NumNodes:    m.hdr.baseN,
		ClusterTime: time.Duration(clusterTime),
		FactorTime:  time.Duration(factorTime),
	}
	return nil
}

// deadIDs lists the tombstoned ids in ascending order, empty (not nil)
// when there are none.
func (h *engineHeader) deadIDs() []int {
	dead := make([]int, 0, h.deadCount)
	for id, d := range h.dead {
		if d {
			dead = append(dead, id)
		}
	}
	return dead
}

// writeTombstones encodes the dead set as an ascending id list.
func (h *engineHeader) writeTombstones(sw *binio.Writer) { sw.Ints(h.deadIDs()) }

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
	m.hdr.deriveLiveDelta(m.n)
	return nil
}
