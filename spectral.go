package mogul

// The spectral engine: Fast Spectral Ranking (Iscen et al., CVPR'18)
// as a first-class serving backend.
//
// The exact engine answers a query by solving (I - alpha*S) x =
// (1-alpha) q against a sparse factorization; EMR shrinks the solve to
// anchor space. The spectral engine removes the global solve altogether.
// BuildSpectral computes the top-r eigenpairs S ~ U diag(lambda) U^T
// of the normalized k-NN graph adjacency once at build (Lanczos with
// full reorthogonalization, internal/spectral), and the query-time
// resolvent splits into an exact short-range part and a spectral tail:
//
//	x = (1-alpha) (I - alpha S)^{-1} q
//	  = (1-alpha) [ sum_{t<T} (alpha S)^t q  +  (alpha S)^T (I - alpha S)^{-1} q ]
//	  ~ (1-alpha) [ sum_{t<T} (alpha S)^t q  +  U diag(g) U^T q ],
//	g(lambda) = (alpha*lambda)^T / (1 - alpha*lambda).
//
// The first T hops run exactly as a sparse frontier expansion on the
// stored base graph — they carry the sharp local ordering that rank
// truncation destroys — while the eigenbasis carries only the smooth
// long-range tail, whose fine structure the hops have already damped
// by (alpha*lambda)^T. The horizon T is adaptive per query: after the
// guaranteed minimum (SpectralOptions.Hops), expansion continues
// while the residual mass still matters and an edge-traversal budget
// (SpectralOptions.HopBudget) allows. On clustered data diffusion is
// component-local, so the frontier saturates at the query's component
// after a few rounds; from there the rest of the series is a linear
// system over that component alone, (I - alpha S_C)^-1 applied to the
// seeds, and when the component is small enough for the budget it is
// solved in place (a dense Cholesky on a few dozen items) instead of
// iterated for the ~2300 rounds alpha = 0.99 takes to decay: T is then
// infinite, the head carries the whole resolvent exactly and the tail
// vanishes — precisely the regime where the truncated basis fails (the
// near-degenerate lambda~1 cluster eigenspace cannot be spanned by
// r < #clusters directions). On well-connected graphs the budget stops
// the expansion early and the decaying spectrum makes the truncated
// tail trustworthy. Because the tail coefficient g is evaluated with
// the actual per-query T, the split stays algebraically exact at r = n
// for ANY stopping point (a property the tests pin). A query is then:
// expand hops from the seeds (a local ball, closed by a solve the size
// of that ball, or a bounded sweep — never a factorization of the
// graph), project the seeds into the basis (O(r) per seed), scale by
// the tail coefficients, and score the embedding rows that can still
// reach the top k: the hop ball first, then every other row whose
// Cauchy-Schwarz bound (1-alpha)*|u_i|*|coeff| beats the current k-th
// score, a 64-row block at a time (scan; docs/SPECTRAL.md
// "Bound-and-prune scan"). The scan is exact — it returns what the
// full O(n*r) sweep would — and is bounded by that sweep plus the hop
// ball; the only system ever solved on the query path is the one over
// a closed hop ball.
//
// Out-of-sample queries and Insert attach through surrogate
// neighbours: the vector's AttachK nearest live points, heat-kernel
// weighted with the base graph's bandwidth. Inserted items keep their
// attachment (ids + weights), so they both answer and seed queries
// through their base anchors, exactly as EMR's delta columns do.
// Delete tombstones; Compact re-runs the recorded recipe over the
// live points, exactly as a fresh BuildSpectral. *SpectralIndex
// implements the full Retriever surface, so it serves through the
// serve package, the dist coordinator, and mogul-server
// interchangeably with the other engines. docs/SPECTRAL.md maps the
// rank/recall frontier and names the workloads where truncation fails.

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"time"

	"mogul/internal/dense"
	"mogul/internal/knn"
	"mogul/internal/sparse"
	"mogul/internal/spectral"
	"mogul/internal/vec"
)

// SpectralOptions configures the truncated eigenbasis of
// BuildSpectral. The zero value gives serving defaults (rank 64,
// 2*rank+16 Lanczos steps, 3 exact hops, 10 attachment neighbours);
// the shared Options value supplies the graph recipe (GraphK,
// ApproximateGraph, MutualGraph, Sigma), Alpha, Seed, and
// AutoCompactFraction.
type SpectralOptions struct {
	// Rank is r, the number of retained eigenpairs. More rank buys
	// recall on the smooth long-range part at up to O(n*r) per-query
	// scan cost (r per row the bound cannot rule out); the exact hops
	// below carry the local part regardless. Default 64.
	Rank int
	// Steps is the Lanczos iteration count (the Krylov depth the
	// Ritz pairs converge in); 0 selects 2*Rank+16, which suits the
	// gapped spectra of clustered data. Clamped to n.
	Steps int
	// Hops is the guaranteed minimum T: how many leading terms of the
	// Neumann series each query evaluates exactly on the sparse base
	// graph before the adaptive policy may hand the rest to the
	// eigenbasis. The hops are a frontier expansion from the seeds and
	// are what keeps within-neighbourhood ranking sharp under
	// aggressive rank truncation. Default 3; minimum 1.
	Hops int
	// HopBudget bounds the adaptive continuation: past the minimum,
	// expansion keeps going while the un-diffused seed mass is above
	// tolerance (1e-10 of the seeds' own) and the cumulative edge
	// traversals stay within this budget. On clustered data the frontier
	// saturates at the query's small component after a few rounds; the
	// budget then also prices finishing that component with one dense
	// solve — m^2*(m/3+2) operations for m items, taken when it fits
	// what is left of the budget and undercuts the rounds still owed
	// (~2300 at alpha = 0.99) — so components up to ~90 items under the
	// default are carried exactly, and larger closed ones iterate until
	// the budget stops them. On well-connected graphs one round costs
	// ~n*k traversals and the budget stops the expansion almost
	// immediately, handing the long-range mass to the eigenbasis (which
	// a decaying spectrum makes trustworthy there). Default 1<<18.
	HopBudget int
	// AttachK is how many nearest stored points an out-of-sample
	// query or inserted vector attaches to (heat-kernel weighted
	// surrogate seeds). Default 10.
	AttachK int
}

func (o SpectralOptions) withDefaults() SpectralOptions {
	if o.Rank <= 0 {
		o.Rank = 64
	}
	if o.Hops <= 0 {
		o.Hops = 3
	}
	if o.HopBudget <= 0 {
		o.HopBudget = 1 << 18
	}
	if o.AttachK <= 0 {
		o.AttachK = 10
	}
	return o
}

// hopMassTol is the convergence cutoff of the adaptive hop expansion,
// relative to the mass the seeds started with: once the un-diffused
// frontier mass drops below that share, the remaining resolvent tail
// cannot move any ranking (scores carry a further (1-alpha) scale) and
// expansion stops.
const hopMassTol = 1e-10

// spectralState is everything a query touches, grouped so Compact can
// build a replacement off-line and swap it in atomically under the
// write lock. Within a state, graph/vals/sigma are frozen at build
// time; the header's points/dead, emb and the attachment arrays grow
// or flip under the write lock.
type spectralState struct {
	engineHeader
	rank int
	// graph is the normalized adjacency S over the base build — the
	// sparse operator the exact query-time hops run on. Tombstoned
	// base items stay in it (they conduct diffusion but are never
	// returned), exactly as EMR keeps dead columns until Compact.
	graph *sparse.CSR
	// sigma is the heat-kernel bandwidth the base graph derived (or
	// was pinned to) — the attachment kernel for out-of-sample queries
	// and inserts.
	sigma float64
	// vals are the retained eigenvalues, descending. Each query derives
	// its spectral-tail coefficients (alpha*vals[j])^T / (1 -
	// alpha*vals[j]) from them with its own adaptive horizon T.
	vals []float64
	// emb stores the embedding rows flat with stride rank: one
	// cache-friendly streaming array, which is what keeps the per-query
	// scan memory-bandwidth bound. In mixed-precision mode they are
	// float32 rows (and the base graph's CSR values narrow to Val32); the
	// eigenvalues and attachment weights stay float64 — they are rank- or
	// AttachK-sized, cold next to the scan.
	emb vec.Rows
	// embNorm[i] bounds the 2-norm of item i's stored row from above (the
	// norm itself, up to rounding) and blockMax[b] is its maximum over
	// base rows [b*spectralBlock, (b+1)*spectralBlock): what lets the
	// query scan skip rows, and whole blocks, that cannot reach the top k.
	// Both are derived from the stored rows wherever a state is born
	// (deriveNorms) and never persisted; Insert appends to embNorm only.
	embNorm  []float64
	blockMax []float64
	// Delta attachments: item baseN+d owns attID/attW entries
	// [attPtr[d], attPtr[d+1]) — its surrogate base anchors. Through
	// them a delta item receives the hop scores of its neighbourhood
	// and redistributes its seed mass when queried.
	attPtr []int
	attID  []int
	attW   []float64
}

// narrow32 moves the state into mixed-precision storage: the point
// matrix flattens to float32 rows, the embedding rows and the base
// graph's edge weights round to float32, halving the bytes a query
// streams per scored row; the eigenvalues and the delta attachment
// weights keep full precision. It runs before the row norms are
// derived, so they are derived once, from the rounded rows.
func (st *spectralState) narrow32() {
	st.points = st.points.Narrow()
	st.emb = st.emb.Narrow()
	st.graph.Narrow32()
}

// spectralBlock is how many consecutive base rows share one entry of
// blockMax: small enough that one far-reaching row taints few
// neighbours, large enough that a pruned query reads n/64 bounds, not n.
const spectralBlock = 64

// The slack of the pruning bound (scan). A row is skipped only when
// (1-alpha)*|u_i|*|coeff|, inflated by pruneRelSlack+4*r*2^-52 and
// pruneAbsSlack, cannot beat the k-th score. The relative part covers
// every rounding between the true bound and the computed score — the
// r-term sums of vec.Dot/Dot32 and of the norms are each within
// (r+2)*2^-53 of exact — with seven orders of magnitude to spare at
// r = 64; the absolute part covers products that underflow (each loses
// at most 2^-1075, and far fewer than 2^70 of them meet in one score).
const (
	pruneRelSlack = 1e-9
	pruneAbsSlack = 0x1p-1000
	// minCoeffNorm floors the coefficient norm so the per-query bound
	// factor is a normal number (a subnormal one would carry an
	// unbounded relative error into every row's bound).
	minCoeffNorm = 0x1p-500
)

// normBound returns an upper bound on the 2-norm of row, up to a
// relative rounding error of (len(row)+2)*2^-53: the norm itself
// whenever the sum of squares stays clear of under- and overflow, else
// sqrt(len)*max|x| rounded up. A row with a NaN or infinite element has
// no bound: it reports +Inf and false.
func normBound(row []float64) (float64, bool) {
	if s := vec.Dot(row, row); s >= 0x1p-900 && s <= 0x1p900 {
		return math.Sqrt(s), true
	}
	m := 0.0
	for _, x := range row {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return math.Inf(1), false
		}
		m = max(m, math.Abs(x))
	}
	// Rounded up by at least one ulp, subnormals included.
	return m*math.Sqrt(float64(len(row)))*(1+0x1p-52) + math.SmallestNonzeroFloat64, true
}

// pruneReach sizes the pruning bound of one query: unit*x +
// pruneAbsSlack is at least the computed scale*sum of any sum whose
// exact terms total at most x in magnitude, and reach*embNorm[i] +
// pruneAbsSlack at least the computed |scale * coeff . u_i|. A
// non-finite coeff makes reach +Inf, which prunes nothing.
func pruneReach(scale float64, coeff []float64) (unit, reach float64) {
	nc, _ := normBound(coeff)
	unit = scale * (1 + pruneRelSlack + 4*float64(len(coeff))*0x1p-52)
	return unit, unit * max(nc, minCoeffNorm)
}

// deriveNorms fills embNorm and blockMax from the stored rows (widened
// float32 in mixed-precision mode) in one sequential pass, and returns
// the first item whose row holds a non-finite element, or -1. Such a row
// would enter every top-k (NaN defeats the collector's comparison), so
// loaders refuse it.
func (st *spectralState) deriveNorms() int {
	st.embNorm = make([]float64, st.numPoints())
	st.blockMax = make([]float64, (st.baseN+spectralBlock-1)/spectralBlock)
	bad := -1
	buf := make([]float64, st.rank)
	for i := range st.embNorm {
		nrm, finite := normBound(st.emb.Row(i, buf))
		if !finite && bad < 0 {
			bad = i
		}
		st.embNorm[i] = nrm
		if i < st.baseN {
			b := i / spectralBlock
			st.blockMax[b] = max(st.blockMax[b], nrm)
		}
	}
	return bad
}

// SpectralIndex is the truncated-eigenbasis (Fast Spectral Ranking)
// serving engine built by BuildSpectral. It implements Retriever
// through the shared engine lifecycle (engine.go): searches run
// concurrently against the immutable base structures (read lock) on
// pooled per-searcher scratch, while Insert/Delete/Compact mutate the
// delta state (or swap the whole basis) behind the write lock.
type SpectralIndex struct {
	engine[*spectralState]
	// ropts/sopts are the recorded recipe Compact rebuilds with.
	ropts Options // graph recipe (GraphK, Approximate, Mutual, Sigma) + Seed
	sopts SpectralOptions
	// att and attRow are Insert's attachment scratch: attach fills them,
	// commit appends them (mutMu serializes the pair).
	att    attachScratch
	attRow []float64
}

// Both the engine and its searcher implement the shared serving
// surfaces.
var (
	_ Retriever = (*SpectralIndex)(nil)
	_ Querier   = (*SpectralSearcher)(nil)
)

func newSpectralIndex(ropts Options, sopts SpectralOptions, st *spectralState) *SpectralIndex {
	e := &SpectralIndex{ropts: ropts, sopts: sopts}
	e.init(e, &spectralFrame, "mogul", ropts.Alpha, ropts.Seed, ropts.AutoCompactFraction, st)
	return e
}

// BuildSpectral constructs the spectral engine over the given feature
// vectors. opts supplies the graph recipe, Alpha, Seed, and
// AutoCompactFraction (Exact is ignored — truncation is the point);
// sopts sizes the eigenbasis and the exact-hop horizon. The build is
// deterministic for a fixed seed — byte-identical at any GOMAXPROCS —
// and query independent: one engine serves any query item, any
// vector, any k.
func BuildSpectral(points []Vector, opts Options, sopts SpectralOptions) (*SpectralIndex, error) {
	if err := checkBuildInput("BuildSpectral", points, 2, &opts); err != nil {
		return nil, err
	}
	sopts = sopts.withDefaults()
	st, err := buildSpectralState(points, opts, sopts, opts.Precision == F32)
	if err != nil {
		return nil, err
	}
	return newSpectralIndex(opts, sopts, st), nil
}

func (e *SpectralIndex) build(points []Vector, f32 bool) (*spectralState, error) {
	return buildSpectralState(points, e.ropts, e.sopts, f32)
}

// buildSpectralState runs the offline half of the engine: the k-NN
// graph and its symmetric normalization through the shared parallel
// pipeline, then the rank-r Lanczos decomposition; with f32 set the
// result is narrowed before the row norms are derived.
func buildSpectralState(points []Vector, opts Options, sopts SpectralOptions, f32 bool) (*spectralState, error) {
	n := len(points)
	k := opts.GraphK
	if k <= 0 {
		k = 5
	}
	t0 := time.Now()
	g, err := knn.BuildGraph(points, knn.GraphConfig{
		K:           k,
		Mutual:      opts.MutualGraph,
		Sigma:       opts.Sigma,
		Approximate: opts.ApproximateGraph,
		Seed:        opts.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("mogul: building k-NN graph: %w", err)
	}
	S := g.NormalizedAdjacency()
	graphTime := time.Since(t0)

	t1 := time.Now()
	basis, err := spectral.Decompose(S, sopts.Rank, sopts.Steps, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("mogul: spectral decomposition: %w", err)
	}
	st := &spectralState{
		engineHeader: engineHeader{dim: len(points[0]), points: vec.AliasRows(points, len(points[0])), dead: make([]bool, n), baseN: n},
		rank:         basis.Rank,
		graph:        S,
		sigma:        g.Sigma,
		vals:         basis.Vals,
		emb:          vec.FlatRows(basis.Vecs, basis.Rank),
		attPtr:       []int{0},
	}
	if f32 {
		st.narrow32()
	}
	if i := st.deriveNorms(); i >= 0 {
		return nil, fmt.Errorf("mogul: embedding row %d is non-finite", i)
	}
	st.stats = Stats{
		NumNodes:    n,
		NumClusters: st.rank,
		FactorNNZ:   n * st.rank,
		ClusterTime: graphTime,
		FactorTime:  time.Since(t1),
	}
	return st, nil
}

// tailCoefficient is the eigenvalue-wise weight of the resolvent's
// remainder after the first hops Neumann terms are evaluated exactly:
// (alpha*lambda)^hops / (1 - alpha*lambda). Evaluated from the same
// persisted eigenvalues by the same expression on every engine, so a
// loaded engine scores bit-identically to the one that saved it.
func tailCoefficient(alpha, lambda float64, hops int) float64 {
	av := alpha * lambda
	p := math.Pow(math.Abs(av), float64(hops))
	if av < 0 && hops%2 == 1 {
		p = -p
	}
	return p / (1 - av)
}

// Rank returns r, the number of eigenpairs the current basis retains.
func (e *SpectralIndex) Rank() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.st.rank
}

// Neighbors is unavailable: the eigenbasis stores per-item embedding
// rows, and the base graph is an internal diffusion operator, not a
// per-item result surface.
func (e *SpectralIndex) Neighbors(item int) ([]int, []float64, error) {
	return nil, nil, fmt.Errorf("mogul: the spectral engine has no item-level neighbour surface (embedding rows only)")
}

// SpectralSearcher is a dedicated reusable query engine over a
// SpectralIndex: it owns the projection/coefficient vectors, the
// top-k collector, the hop-expansion frontier, and the attachment
// scratch, so a steady query load runs allocation-free. Use one
// searcher per worker goroutine (the SpectralIndex query methods draw
// from an internal pool). TopK, TopKWithInfo, TopKVector and TopKSet
// come from the shared searcher half (engine.go).
type SpectralSearcher struct {
	searcher[*spectralState]
	e        *SpectralIndex
	b, coeff []float64
	// Hop-expansion scratch: hop accumulates the exact Neumann prefix
	// over base items, pw/tmp carry the current power, and the stamp
	// arrays make "is this entry mine" O(1) without ever clearing the
	// dense arrays (hstamp/qepoch per query, estamp/eepoch per hop).
	hop, pw, tmp   []float64
	hstamp, estamp []uint64
	qepoch, eepoch uint64
	curID, nxtID   []int
	// touched lists the base items the latest expansion stamped, in
	// discovery order: the rows the scan offers first. rounds is how many
	// rounds that expansion ran (a solved head stops counting at closure).
	touched []int
	rounds  int
	// sys is solveClosed's scratch: the m x m system of a closed hop ball
	// followed by its right-hand side, grown (geometrically) to the
	// largest ball the gate has admitted.
	sys []float64
	// att is the out-of-sample attachment scratch.
	att attachScratch
	// info holds the work counters of the latest scan (work).
	info SearchInfo
	// baseSeeds/deltaSelf split the query's seed distribution: its
	// base-graph redistribution (delta seeds forwarded to their
	// anchors), and the t=0 self terms of delta seeds.
	baseSeeds, deltaSelf []seedWeight
}

// NewSearcher returns a fresh dedicated searcher.
func (e *SpectralIndex) NewSearcher() *SpectralSearcher {
	sr := &SpectralSearcher{e: e}
	sr.eng, sr.be = &e.engine, sr
	return sr
}

// NewQuerier is NewSearcher behind the interface surface (Retriever).
func (e *SpectralIndex) NewQuerier() Querier { return e.NewSearcher() }

func (e *SpectralIndex) newSearcher() *searcher[*spectralState] { return &e.NewSearcher().searcher }

// ensure sizes the scratch for the current state (Compact may change
// the rank and base size; Insert grows the id space). Callers hold
// e.mu.
func (sr *SpectralSearcher) ensure(st *spectralState) {
	rank := st.rank
	if cap(sr.b) < rank {
		sr.b = make([]float64, rank)
		sr.coeff = make([]float64, rank)
	}
	sr.b = sr.b[:rank]
	sr.coeff = sr.coeff[:rank]
	for j := range sr.b {
		sr.b[j] = 0
	}
	base := st.baseN
	if cap(sr.hop) < base {
		sr.hop = make([]float64, base)
		sr.pw = make([]float64, base)
		sr.tmp = make([]float64, base)
		sr.hstamp = make([]uint64, base)
		sr.estamp = make([]uint64, base)
		sr.qepoch, sr.eepoch = 0, 0
	}
	sr.hop = sr.hop[:base]
	sr.pw = sr.pw[:base]
	sr.tmp = sr.tmp[:base]
	sr.hstamp = sr.hstamp[:base]
	sr.estamp = sr.estamp[:base]
}

// splitSeeds converts the raw seed list into the base distribution
// (delta seeds forwarded to their stored anchors, entries merged and
// ascending) and the delta self-term list. Callers hold e.mu; the raw
// list must be ascending by id with unique ids.
func (sr *SpectralSearcher) splitSeeds(raw []seedWeight) {
	st := sr.e.st
	sr.baseSeeds = sr.baseSeeds[:0]
	sr.deltaSelf = sr.deltaSelf[:0]
	for _, sw := range raw {
		if sw.id < st.baseN {
			sr.baseSeeds = append(sr.baseSeeds, sw)
			continue
		}
		sr.deltaSelf = append(sr.deltaSelf, sw)
		d := sw.id - st.baseN
		for t := st.attPtr[d]; t < st.attPtr[d+1]; t++ {
			sr.baseSeeds = append(sr.baseSeeds, seedWeight{id: st.attID[t], w: sw.w * st.attW[t]})
		}
	}
	sr.baseSeeds = normalizeSeeds(sr.baseSeeds)
}

// expandHops evaluates the exact head of the resolvent applied to the
// base seed distribution: the Neumann prefix sum_{t<T} (alpha S)^t, a
// frontier expansion on the sparse base graph, entirely serial and
// therefore trivially deterministic. The horizon is adaptive: at least
// sopts.Hops rounds always run, after which expansion continues while
// the un-diffused mass exceeds hopMassTol of the seeds' own mass (the
// ranking is linear in the seed weights, so the cut-off is too) and the
// cumulative edge traversals stay within sopts.HopBudget.
//
// The first round that stamps no new item proves the ball closed under
// S: every touched item has been expanded, S is symmetric, so sr.touched
// is a union of whole components and the rest of the series is
// (I - alpha*S_C)^-1 applied to the seeds — which solveClosed computes
// directly when that is the cheaper way to finish. Every stopping and
// switching criterion is a deterministic function of the graph, the
// seeds and alpha.
//
// Returns the realized T, so the caller evaluates the spectral tail
// coefficients with exactly the terms the prefix did not cover, or
// hopsConverged when the head was solved and covers them all. Results
// land in sr.hop, valid where sr.hstamp[i] == sr.qepoch — exactly the
// items sr.touched lists. Callers hold e.mu.
func (sr *SpectralSearcher) expandHops(seeds []seedWeight) int {
	e := sr.e
	st := e.st
	sr.qepoch++
	sr.curID = sr.curID[:0]
	sr.touched = sr.touched[:0]
	mass := 0.0
	for _, sw := range seeds {
		sr.hop[sw.id] = sw.w
		sr.pw[sw.id] = sw.w
		sr.hstamp[sw.id] = sr.qepoch
		sr.curID = append(sr.curID, sw.id)
		sr.touched = append(sr.touched, sw.id)
		mass += math.Abs(sw.w)
	}
	cut := hopMassTol * mass
	S := st.graph
	spent := 0
	closed := false
	t := 1
	for ; ; t++ {
		if len(sr.curID) == 0 {
			break
		}
		if t >= e.sopts.Hops && (mass <= cut || spent >= e.sopts.HopBudget) {
			break
		}
		sr.eepoch++
		sr.nxtID = sr.nxtID[:0]
		var edges int
		if S.Val32 != nil {
			edges = hopRound(sr, S, S.Val32)
		} else {
			edges = hopRound(sr, S, S.Val)
		}
		spent += edges
		// Ascending-id accumulation keeps the float sums independent of
		// frontier discovery order. A frontier of m ids with m*log2(m) above
		// the base size is cheaper to re-read off the round's stamps in
		// memory order than to sort (measured flat from a quarter of that
		// to it, worse beyond) — the same ids, ascending either way.
		if m := len(sr.nxtID); m*bits.Len(uint(m)) > st.baseN {
			sr.nxtID = sr.nxtID[:0]
			for i, stamp := range sr.estamp {
				if stamp == sr.eepoch {
					sr.nxtID = append(sr.nxtID, i)
				}
			}
		} else {
			sort.Ints(sr.nxtID)
		}
		mass = 0
		ball := len(sr.touched)
		for _, i := range sr.nxtID {
			w := sr.tmp[i]
			sr.pw[i] = w
			mass += math.Abs(w)
			if sr.hstamp[i] != sr.qepoch {
				sr.hstamp[i] = sr.qepoch
				sr.hop[i] = w
				sr.touched = append(sr.touched, i)
			} else {
				sr.hop[i] += w
			}
		}
		sr.curID, sr.nxtID = sr.nxtID, sr.curID
		if !closed && len(sr.touched) == ball {
			// Asked once, at closure: from here on the iteration's remaining
			// cost only shrinks and so does the budget, while the solve's
			// stays what it is.
			closed = true
			if sr.solveClosed(seeds, cut/mass, edges, e.sopts.HopBudget-spent) {
				sr.rounds = t
				return hopsConverged
			}
		}
	}
	sr.rounds = t - 1
	return t
}

// hopRound spreads the frontier sr.curID one hop over S, whose edge
// weights are val in either storage width: alpha times each frontier
// item's mass sr.pw lands in sr.tmp of its neighbours, each first
// reached one stamped this round and listed in sr.nxtID. It returns the
// edges traversed.
func hopRound[P vec.Float](sr *SpectralSearcher, S *sparse.CSR, val []P) int {
	edges := 0
	for _, j := range sr.curID {
		v := sr.e.alpha * sr.pw[j]
		a, b := S.RowPtr[j], S.RowPtr[j+1]
		for x := a; x < b; x++ {
			i := S.Col[x]
			if sr.estamp[i] != sr.eepoch {
				sr.estamp[i] = sr.eepoch
				sr.tmp[i] = 0
				sr.nxtID = append(sr.nxtID, i)
			}
			sr.tmp[i] += float64(val[x]) * v
		}
		edges += b - a
	}
	return edges
}

// hopsConverged is the horizon expandHops reports for a head that
// carries the whole resolvent: T -> infinity, at which every tail
// coefficient (alpha*lambda)^T / (1 - alpha*lambda) is its limit, zero.
// tailCoefficient evaluates to exactly that (|alpha*lambda| < 1 to the
// power 2^63 underflows), and scan knows it without evaluating.
const hopsConverged = math.MaxInt

// solveClosed finishes a closed hop ball in one step instead of
// iterating it to tolerance: it assembles A = I - alpha*S_C over the
// touched items in ascending id order (float64 from the stored edge
// weights, widened in mixed-precision states; tombstoned base items stay
// in — they conduct, and scan never returns them), solves A x = seeds
// by an in-place Cholesky factorization on searcher-owned scratch, and
// overwrites sr.hop with x, the whole series sum_t (alpha S)^t applied to
// the seeds. A is symmetric positive definite (spectrum within
// [1-alpha, 1+alpha]) and only its lower triangle is assembled and read.
//
// It declines — false, sr.hop and the iteration's state untouched —
// unless the solve is the cheaper way to finish, priced in the loop's
// own unit, one edge traversal per floating-point operation: its
// m^2*(m/3+2) (factorization m^3/3, assembly and the two substitutions
// 2m^2) must fit budget, what is left of the hop budget, and undercut
// the rounds the iteration still owes — the mass has to shrink by the
// factor togo, alpha per round — at the last round's edge count. A pivot that is not positive (a graph that is not
// the symmetric normalized adjacency the engine builds) declines as
// well, and the iteration carries on.
func (sr *SpectralSearcher) solveClosed(seeds []seedWeight, togo float64, edges, budget int) bool {
	m := len(sr.touched)
	alpha := sr.e.alpha
	cost := float64(m) * float64(m) * (float64(m)/3 + 2)
	// Written so that a NaN (no mass left, or a non-finite one) declines.
	if !(cost <= float64(budget) && cost < math.Ceil(math.Log(togo)/math.Log(alpha))*float64(edges)) {
		return false
	}
	ids := append(sr.nxtID[:0], sr.touched...)
	sr.nxtID = ids
	sort.Ints(ids)
	// pos is the row of a touched id; closure guarantees it is found.
	pos := func(id int) int {
		p, _ := slices.BinarySearch(ids, id)
		return p
	}
	sr.sys = slices.Grow(sr.sys[:0], m*m+m)[:m*m+m]
	a, x := sr.sys[:m*m], sr.sys[m*m:]
	clear(sr.sys)
	S := sr.e.st.graph
	for p, j := range ids {
		row := a[p*m : p*m+p+1]
		row[p] = 1
		for e, end := S.RowPtr[j], S.RowPtr[j+1]; e < end; e++ {
			i := S.Col[e]
			if i > j {
				continue
			}
			var w float64
			if S.Val32 != nil {
				w = float64(S.Val32[e])
			} else {
				w = S.Val[e]
			}
			row[pos(i)] -= alpha * w
		}
	}
	for _, sw := range seeds {
		x[pos(sw.id)] = sw.w
	}
	if !dense.SolveSPD(a, x) {
		return false
	}
	for p, id := range ids {
		sr.hop[id] = x[p]
	}
	return true
}

// collect runs the online half of the engine with e.mu held: expand
// the exact hops from the base seed distribution, then scan. The seed
// lists must already be prepared (splitSeeds) and sr.b filled.
func (sr *SpectralSearcher) collect(k int) []Result {
	return sr.scan(k, sr.expandHops(sr.baseSeeds))
}

// scan scores the live items against a head already in sr.hop (valid
// where sr.hstamp says so, listed by sr.touched) that stopped at horizon
// hops: scale the projection sr.b by the spectral-tail coefficients of
// that horizon, then base items add their hop score to coeff . u_i,
// delta items gather it through their attachment and add their t=0 self
// term.
//
// The scan is exact but not exhaustive. The hop ball is offered first,
// so the collector's threshold starts at a real hop score; after that a
// row's dot product is evaluated only if its Cauchy-Schwarz bound
// (1-alpha)*|u_i|*|coeff| — inflated by the stated slack, which covers
// every rounding between the bound and the computed score — can still
// beat the current k-th score under Offer's own rule (a score <= the
// threshold is rejected), and a whole block is skipped when its largest
// norm cannot. Every comparison is written so that a collector that is
// not yet full (threshold -Inf) or a NaN on either side never prunes:
// with k >= live this is the full scan. The answer is the full scan's —
// same scores to the bit; only which of several items tied exactly at
// the k-th score survive can differ, because offers arrive in a
// different order. sr.info records what the scan did.
//
// A converged head (hopsConverged) has no tail: coeff is identically
// zero, every coeff . u_i is exactly +0 and is not evaluated, and the
// bound of a base row is exactly 0 — no slack, there is no product left
// to round. Beyond the closed ball exact Manifold Ranking on this graph
// is zero, so when k exceeds the ball the answer is filled with the
// lowest live ids at score +0, and the sweep stops at the first row it
// meets with the collector full (threshold >= 0) instead of visiting
// every row for a dot product with a zero vector.
func (sr *SpectralSearcher) scan(k, hops int) []Result {
	e := sr.e
	st := e.st
	scale := 1 - e.alpha
	converged := hops == hopsConverged
	if converged {
		clear(sr.coeff)
	} else {
		for j := range sr.coeff {
			sr.coeff[j] = tailCoefficient(e.alpha, st.vals[j], hops) * sr.b[j]
		}
	}
	unit, reach := pruneReach(scale, sr.coeff)
	slack := pruneAbsSlack
	if converged {
		reach, slack = 0, 0
	}
	tail := func(i int) float64 {
		if converged {
			return 0
		}
		return st.emb.Dot(i, sr.coeff)
	}
	sr.resetCollector(k)
	scored := 0
	offerHop := func(i int) {
		if !st.dead[i] {
			scored++
			sr.col.Offer(i, scale*(tail(i)+sr.hop[i]))
		}
	}
	if len(sr.touched) < len(st.blockMax) {
		for _, i := range sr.touched {
			offerHop(i)
		}
	} else {
		// A ball this large (a row per block or more) is read in memory
		// order off the stamps, not in discovery order: on a
		// well-connected graph it is most of the corpus, and hopping
		// around the embedding costs twice what streaming it does.
		for i := 0; i < st.baseN; i++ {
			if sr.hstamp[i] == sr.qepoch {
				offerHop(i)
			}
		}
	}

	pruned := 0
	for b, bm := range st.blockMax {
		if reach*bm+slack <= sr.col.Threshold() {
			pruned++
			continue
		}
		for i, hi := b*spectralBlock, min((b+1)*spectralBlock, st.baseN); i < hi; i++ {
			if st.dead[i] || sr.hstamp[i] == sr.qepoch || reach*st.embNorm[i]+slack <= sr.col.Threshold() {
				continue
			}
			scored++
			sr.col.Offer(i, scale*tail(i))
		}
	}

	// Delta rows: the attachment and self terms are at most AttachK+1
	// cheap exact terms, so they are always evaluated (in magnitude) and
	// only the dot product is spared.
	si := 0
	for i, n := st.baseN, st.numPoints(); i < n; i++ {
		if si < len(sr.deltaSelf) && sr.deltaSelf[si].id < i {
			si++
		}
		if st.dead[i] {
			continue
		}
		self, seeded := 0.0, si < len(sr.deltaSelf) && sr.deltaSelf[si].id == i
		if seeded {
			self = sr.deltaSelf[si].w
		}
		d := i - st.baseN
		rest := math.Abs(self)
		for t := st.attPtr[d]; t < st.attPtr[d+1]; t++ {
			if id := st.attID[t]; sr.hstamp[id] == sr.qepoch {
				rest += math.Abs(st.attW[t] * sr.hop[id])
			}
		}
		if reach*st.embNorm[i]+unit*rest+pruneAbsSlack <= sr.col.Threshold() {
			continue
		}
		scored++
		sum := tail(i)
		for t := st.attPtr[d]; t < st.attPtr[d+1]; t++ {
			if id := st.attID[t]; sr.hstamp[id] == sr.qepoch {
				sum += st.attW[t] * sr.hop[id]
			}
		}
		if seeded {
			sum += self
		}
		sr.col.Offer(i, scale*sum)
	}
	sr.info = SearchInfo{ClustersPruned: pruned, ClustersScanned: len(st.blockMax) - pruned, ScoresComputed: scored}
	return sr.results()
}

// work reports what the latest scan did: rows scored, and base-row
// blocks entered / skipped whole by the bound.
func (sr *SpectralSearcher) work() SearchInfo { return sr.info }

// attachScratch is the out-of-sample attachment scratch: the batched
// squared-distance sweep and the bounded nearest-live selection. Every
// searcher owns one; the engine owns one more for Insert.
type attachScratch struct {
	dist  []float64
	nbrID []int
	nbrW  []float64
}

// attachLive finds the surrogate seeds of an out-of-sample vector in
// st: the kAttach nearest live points by one batched squared-distance
// sweep, heat-kernel weighted with the base graph's bandwidth. baseOnly
// restricts the candidates to the base build (Insert needs anchors the
// hop expansion can reach directly). It fills a.nbrID/a.nbrW
// (normalized to unit mass) and returns the count and the raw
// (unnormalized) kernel mass. Callers hold the engine's mu.
func (a *attachScratch) attachLive(st *spectralState, kAttach int, q Vector, baseOnly bool) (int, float64) {
	n := st.numPoints()
	if baseOnly {
		n = st.baseN
	}
	if cap(a.dist) < n {
		a.dist = make([]float64, n)
	}
	a.dist = a.dist[:n]
	st.points.SqDistPrefix(q, a.dist)
	if cap(a.nbrID) < kAttach {
		a.nbrID = make([]int, 0, kAttach)
		a.nbrW = make([]float64, 0, kAttach)
	}
	a.nbrID = a.nbrID[:0]
	a.nbrW = a.nbrW[:0]
	// Bounded insertion selection over (distance, id) — a strict total
	// order, so the selected set is deterministic.
	for i := 0; i < n; i++ {
		if st.dead[i] {
			continue
		}
		d := a.dist[i]
		if len(a.nbrID) == kAttach && d >= a.nbrW[kAttach-1] {
			continue
		}
		pos := len(a.nbrID)
		if pos < kAttach {
			a.nbrID = a.nbrID[:pos+1]
			a.nbrW = a.nbrW[:pos+1]
		} else {
			pos = kAttach - 1
		}
		for pos > 0 && a.nbrW[pos-1] > d {
			a.nbrID[pos] = a.nbrID[pos-1]
			a.nbrW[pos] = a.nbrW[pos-1]
			pos--
		}
		a.nbrID[pos] = i
		a.nbrW[pos] = d
	}
	// Heat-kernel weights under the base bandwidth; a query so remote
	// that every weight underflows falls back to uniform attachment
	// (the ranking is meaningless either way, but stays well-defined).
	inv := 0.0
	if st.sigma > 0 {
		inv = 1 / (2 * st.sigma * st.sigma)
	}
	var mass float64
	for t, d := range a.nbrW {
		w := math.Exp(-d * inv)
		a.nbrW[t] = w
		mass += w
	}
	if mass > 0 {
		for t := range a.nbrW {
			a.nbrW[t] /= mass
		}
	} else {
		for t := range a.nbrW {
			a.nbrW[t] = 1 / float64(len(a.nbrW))
		}
	}
	return len(a.nbrID), mass
}

// scoreSeeds projects the seeds into the basis through their embedding
// rows and seeds the exact hops from their base redistribution.
func (sr *SpectralSearcher) scoreSeeds(seeds []seedWeight, k int) []Result {
	st := sr.e.st
	sr.ensure(st)
	seeds = normalizeSeeds(seeds)
	for _, sw := range seeds {
		st.emb.Axpy(sr.b, sw.w, sw.id)
	}
	sr.splitSeeds(seeds)
	return sr.collect(k)
}

// scoreVector attaches the query to its AttachK nearest live points as
// heat-kernel-weighted surrogate seeds, whose embedding rows project it
// into the basis (accumulated nearest first) and whose graph
// neighbourhoods seed the exact hops; the affinity is the unnormalized
// kernel mass of that attachment.
func (sr *SpectralSearcher) scoreVector(q Vector, k int) ([]Result, float64, error) {
	st := sr.e.st
	sr.ensure(st)
	m, mass := sr.att.attachLive(st, sr.e.sopts.AttachK, q, false)
	sr.seeds = sr.seeds[:0]
	for t := 0; t < m; t++ {
		id, w := sr.att.nbrID[t], sr.att.nbrW[t]
		st.emb.Axpy(sr.b, w, id)
		sr.seeds = append(sr.seeds, seedWeight{id: id, w: w})
	}
	sr.seeds = normalizeSeeds(sr.seeds)
	sr.splitSeeds(sr.seeds)
	return sr.collect(k), mass, nil
}

func (sr *SpectralSearcher) affinity(q Vector) (float64, error) {
	_, mass := sr.att.attachLive(sr.e.st, sr.e.sopts.AttachK, q, false)
	return mass, nil
}

// attach computes the embedding row and the stored attachment of a
// point arriving after the base build — the O(n·d) half of an Insert,
// which is why it runs under the read lock: it attaches to its AttachK
// nearest live base points (anchors the hop expansion can reach
// directly; one batched distance sweep, no decomposition) through the
// exact code the query-time attachment uses, on scratch the engine
// keeps, and its row is the attachment-weighted combination of theirs,
// accumulated in float64.
func (e *SpectralIndex) attach(st *spectralState, v Vector) error {
	a := &e.att
	m, _ := a.attachLive(st, e.sopts.AttachK, v, true)
	if cap(e.attRow) < st.rank { // first Insert, or Compact changed the rank
		e.attRow = make([]float64, st.rank)
	}
	e.attRow = e.attRow[:st.rank]
	clear(e.attRow)
	for t := 0; t < m; t++ {
		st.emb.Axpy(e.attRow, a.nbrW[t], a.nbrID[t])
	}
	return nil
}

// commit appends the attached row, its norm and the attachment. The row
// is narrowed only here, matching the build's narrow-last rule; the norm
// is the stored row's.
func (e *SpectralIndex) commit(st *spectralState) {
	a := &e.att
	st.emb.Append(e.attRow)
	nrm, _ := normBound(st.emb.Row(st.emb.Len()-1, e.attRow))
	st.embNorm = append(st.embNorm, nrm)
	st.attID = append(st.attID, a.nbrID...)
	st.attW = append(st.attW, a.nbrW...)
	st.attPtr = append(st.attPtr, len(st.attID))
}
