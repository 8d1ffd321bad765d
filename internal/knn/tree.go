package knn

import (
	"runtime"
	"slices"
	"sync"

	"mogul/internal/par"
	"mogul/internal/vec"
)

// Tree is the exact nearest-row search of the graph build and of the
// spectral engine's attach: a k-d tree whose answers are BruteForce's, the
// same ids in the same order with the same distance bits. A query
// descends into the near child first and skips a subtree only when no
// row in it can enter the k (see prunes). Leaves are scanned with the
// batch distance kernel over the leaf's ids. The tree holds no rows:
// every search is handed the rows it was built over, so an engine that
// appends rows after the build searches its current storage and keeps
// no second reference to an old one, and a copy of the rows is never
// made.
type Tree struct {
	// ids is a permutation of [0, n) in which every node's rows are a
	// contiguous range: the root holds [0, n), and a node over [lo, hi)
	// with more than leafSize rows splits at lo + (hi-lo)/2.
	ids []int
	// dim and split are the internal nodes' split dimension and value in
	// heap order: node i's children are 2i+1 (the lower half under
	// (coordinate, id)) and 2i+2.
	dim   []int32
	split []float64
	// box holds one box per leaf, the leaves numbered left to right: leaf
	// b's per-dimension minima at [2db, 2db+d) and its maxima at
	// [2db+d, 2d(b+1)).
	box []float64
	// leafBase[j] is the number of the leftmost leaf under node
	// len(dim)/2 + j, the j-th node of the last internal level — its own
	// number when it is itself a leaf (see leafNumber).
	leafBase []int32
	// leafSize is the row count at or below which a node is a leaf
	// (leafRows).
	leafSize int
	// slack is the relative inflation of the pruning threshold.
	slack float64
}

// leafRows is the leaf size for rows of width d: 16 up to d = 32, d/2
// from there, and 64 from d = 128. A query pays per node it visits (a
// call and a plane update), per leaf it reaches (an O(d) box check) and
// per row it scans (an O(d) distance, four rows per kernel pass plus a
// one-row pass per leftover row). At d = 8 a row costs little more than
// a visit, so small leaves, which the box cuts closest, win. At d = 128
// the visits and the leftover rows dominate: on INRIASim 16-row leaves
// visit 644 nodes and scan 1526 rows per query, 64-row leaves visit 224
// and scan 1759, and the second is the faster (BenchmarkAllKNN,
// docs/PERFORMANCE.md). The sizes were tuned for queries walking the
// tree alone; a graph build's all-points search now walks a leaf's
// queries together from d = 32 (bundleRows).
func leafRows(d int) int { return min(64, max(16, d/2)) }

// bundleRows is the number of a graph build's queries that walk the
// tree together (allKNN): one below d = 32, a leaf's rows from there.
// Walked alone, a query meets each leaf it scans cold: at d = 128 an
// INRIASim query scans ~1760 rows of 1 KB, and of n = 14000 rows (14 MB,
// past a 2 MB L2) each comes from L3. A leaf's queries are each
// other's nearest rows and reach mostly the same leaves, so walked
// together each leaf is read once from L3 and then from L1/L2 by the
// rest (BenchmarkAllKNN at inria-n14000-d128: 0.77–0.90 s alone,
// 0.45–0.61 s bundled). At d = 8 a row costs less than a bundle's
// bookkeeping per node: the d = 8 mixture at n = 20000 ran 59–75 ms
// bundled against 40–47 ms alone (docs/PERFORMANCE.md).
func bundleRows(d int) int {
	if d < 32 {
		return 1
	}
	return leafRows(d)
}

// treeRelSlack and treeAbsSlack inflate the pruning threshold; the
// comment on prunes derives why they, with the tree's rounding term,
// make pruning exact.
const (
	treeRelSlack = 1e-9
	treeAbsSlack = 0x1p-1000
)

// parallelRows is the node size from which NewTree computes a node's
// extent over row blocks in parallel. At n = 20000 that is the root and
// its two children. The lower child of a smaller node goes on a
// goroutine of its own from parallelWork on.
const parallelRows = 1 << 13

// parallelWork is the node size, in rows × width, from which NewTree
// builds a node's lower child on a goroutine beside its upper one:
// nodes of 8,192 rows at d = 8, 512 at d = 128 and 128 at d = 512, where
// a subtree's extents take long enough to pay for the goroutine. EMR's
// per-pass 1,024-centroid tree (d = 8) stays serial, as do the d = 8
// trees of shards under 8,192 rows, which a sharded build already
// builds side by side.
const parallelWork = parallelRows * 8

// NewTree builds the tree over the rows. Each node splits its rows at
// the median of its widest dimension (the largest max − min, the lowest
// dimension on ties) under the strict order (coordinate, id), so the
// tree is a pure function of the rows. float32 rows are split on their
// widened values, which are what their distance kernel subtracts. The
// build is O(n d log n): on one core BenchmarkNewTree reads 11–14 ms at
// n = 20000, d = 8 and ~20 ms at n = 6000, d = 512 (docs/PERFORMANCE.md).
// Nodes of parallelWork or more are built in parallel: a subtree writes
// only its own rows' ids and keys, its own nodes and its own leaves,
// numbered from its row count (leafCount), and every leaf's box is
// folded serially, so the tree is the same at any GOMAXPROCS (the
// blocked extent of parallelRows is exact where it decides anything; see
// parallelExtent). The rows are read, not retained.
func NewTree(points *vec.Rows) *Tree {
	n, d := points.Len(), points.Width()
	t := &Tree{ids: make([]int, n), leafSize: leafRows(d)}
	for i := range t.ids {
		t.ids[i] = i
	}
	depth := 0
	if d > 0 {
		depth = treeDepth(n, t.leafSize)
	}
	t.dim = make([]int32, 1<<depth-1)
	t.split = make([]float64, len(t.dim))
	t.leafBase = make([]int32, (len(t.dim)+1)/2)
	t.box = make([]float64, leafCount(n, depth, t.leafSize)*2*d)
	t.slack = 1 + treeRelSlack + float64(d+2*depth+2)*0x1p-52
	b := &treeBuild{points: points, keys: make([]float64, n), free: make(chan []float64, runtime.GOMAXPROCS(0))}
	t.build(b, make([]float64, 3*d), 0, 0, n, 0)
	b.wg.Wait()
	return t
}

// treeBuild is what every node of one NewTree call shares: the rows,
// scratch for the split coordinates of all n rows, the goroutines
// building lower children, and the work buffers of finished ones, which
// later ones take before they make one. No goroutine waits for another,
// so only those running hold a buffer: at d = 512 a buffer is 12 KB, and
// ~250 nodes go parallel at n = 20000.
type treeBuild struct {
	points *vec.Rows
	keys   []float64
	wg     sync.WaitGroup
	free   chan []float64
}

// treeDepth is the number of halvings, each rounding up, that take n
// rows to at most leafSize: the depth of a tree over n rows.
func treeDepth(n, leafSize int) int {
	depth := 0
	for c := n; c > leafSize; c = (c + 1) / 2 {
		depth++
	}
	return depth
}

// leafCount is the number of leaves of a tree of the given depth over n
// rows. A split halves a node's rows, rounding the lower half down, so
// the nodes on level L hold ⌊n/2^L⌋ or ⌈n/2^L⌉ rows, and depth is the
// first level whose ⌈n/2^L⌉ is at most leafSize. Every level above the
// last internal one is therefore split; on that level, with p nodes,
// the ones holding ⌊n/p⌋ rows are leaves already when ⌊n/p⌋ ≤ leafSize
// (then ⌈n/p⌉ = leafSize + 1 and n mod p nodes hold it), and each other
// node splits into two.
func leafCount(n, depth, leafSize int) int {
	if depth == 0 {
		return 1
	}
	p := 1 << (depth - 1)
	if n/p <= leafSize {
		return p + n%p // the n mod p larger nodes split
	}
	return 2 * p
}

// leaf reports whether the node over [lo, hi) holds its rows unsplit.
func (t *Tree) leaf(node, lo, hi int) bool {
	return hi-lo <= t.leafSize || node >= len(t.dim)
}

// leafNumber is the number of the leaf at node, left to right. A leaf
// is either on the bottom level, one of the two children of a node on
// the last internal level, or (leafCount) on that level itself.
func (t *Tree) leafNumber(node int) int {
	last := len(t.dim) / 2
	switch {
	case len(t.dim) == 0:
		return 0 // the root
	case node < len(t.dim):
		return int(t.leafBase[node-last])
	default:
		return int(t.leafBase[(node-1)/2-last]) + 1 - node%2
	}
}

// build splits node over ids[lo:hi], or records its box if it is a
// leaf, and returns the number of the next leaf; leaf is the number of
// the first leaf under node. work holds an internal node's
// per-dimension minima and maxima followed by one widened row. A node
// of parallelWork or more hands its lower child to a goroutine of its
// own, with its own work, and builds its upper child from the leaf
// number the lower one's row count gives; NewTree waits for them all.
func (t *Tree) build(b *treeBuild, work []float64, node, lo, hi, leaf int) int {
	ids := t.ids[lo:hi]
	d := len(work) / 3
	span, buf := work[:2*d], work[2*d:]
	if last := len(t.dim) / 2; node >= last && node < len(t.dim) {
		t.leafBase[node-last] = int32(leaf)
	}
	if t.leaf(node, lo, hi) {
		if d > 0 && len(ids) > 0 {
			extent(b.points, ids, t.box[2*d*leaf:2*d*(leaf+1)], buf)
		}
		return leaf + 1
	}
	if len(ids) >= parallelRows {
		parallelExtent(b.points, ids, span)
	} else {
		extent(b.points, ids, span, buf)
	}
	s, widest := 0, span[d]-span[0]
	for j := 1; j < d; j++ {
		if w := span[d+j] - span[j]; w > widest {
			s, widest = j, w
		}
	}
	k := b.keys[lo:hi]
	for j, id := range ids {
		k[j] = b.points.Row(id, buf)[s]
	}
	m := len(ids) / 2
	SelectRank(k, ids, m)
	t.dim[node], t.split[node] = int32(s), k[m]
	if len(ids)*d < parallelWork {
		leaf = t.build(b, work, 2*node+1, lo, lo+m, leaf)
		return t.build(b, work, 2*node+2, lo+m, hi, leaf)
	}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		var w []float64
		select {
		case w = <-b.free:
		default:
			w = make([]float64, 3*d)
		}
		t.build(b, w, 2*node+1, lo, lo+m, leaf)
		select {
		case b.free <- w:
		default:
		}
	}()
	return t.build(b, work, 2*node+2, lo+m, hi, leaf+leafCount(m, treeDepth(m, t.leafSize), t.leafSize))
}

// extent writes the per-dimension minima of the rows ids into the first
// half of span and their maxima into the second, folding each row with
// vec.MinMax; buf widens a float32 row.
func extent(points *vec.Rows, ids []int, span, buf []float64) {
	d := len(span) / 2
	mins, maxs := span[:d], span[d:]
	first := points.Row(ids[0], buf)
	copy(mins, first)
	copy(maxs, first)
	for _, id := range ids[1:] {
		vec.MinMax(mins, maxs, points.Row(id, buf)[:d])
	}
}

// parallelExtent is extent over row blocks in parallel, each block's
// minima and maxima then folded into span as two rows. On numbers, ±0
// included, min and max are exact, commutative and associative, and a
// block's minima lie below its maxima, so span holds extent's bits. A
// NaN stays NaN in any order, though its payload may not be extent's:
// a node's span only picks its split dimension, by comparisons a NaN
// fails either way, and the leaf boxes the tree keeps are folded by
// extent.
func parallelExtent(points *vec.Rows, ids []int, span []float64) {
	d := len(span) / 2
	_, count := par.Blocks(len(ids), 0)
	blocks := make([]float64, count*3*d)
	par.ForBlocks(len(ids), 0, func(b, lo, hi int) {
		w := blocks[b*3*d : (b+1)*3*d]
		extent(points, ids[lo:hi], w[:2*d], w[2*d:])
	})
	copy(span, blocks[:2*d])
	for b := 1; b < count; b++ {
		w := blocks[b*3*d:]
		vec.MinMax(span[:d], span[d:], w[:d])
		vec.MinMax(span[:d], span[d:], w[d:2*d])
	}
}

// before is the strict order of the split: coordinate, then id.
func before(ka float64, a int, kb float64, b int) bool {
	return ka < kb || ka == kb && a < b
}

// SelectRank reorders the parallel slices keys and ids so that position
// m holds the element of rank m under (key, id), with every element
// before it ranked lower and every element after it ranked higher
// (quickselect, median-of-three pivot, Hoare partition). The ids must
// be distinct, so that the order is total and the result does not
// depend on how the partitions fall.
func SelectRank(keys []float64, ids []int, m int) {
	swap := func(i, j int) {
		keys[i], keys[j] = keys[j], keys[i]
		ids[i], ids[j] = ids[j], ids[i]
	}
	lo, hi := 0, len(ids)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if before(keys[mid], ids[mid], keys[lo], ids[lo]) {
			swap(mid, lo)
		}
		if before(keys[hi], ids[hi], keys[lo], ids[lo]) {
			swap(hi, lo)
		}
		if before(keys[hi], ids[hi], keys[mid], ids[mid]) {
			swap(hi, mid)
		}
		pk, pid := keys[mid], ids[mid]
		i, j := lo, hi
		for i <= j {
			for before(keys[i], ids[i], pk, pid) {
				i++
			}
			for before(pk, pid, keys[j], ids[j]) {
				j--
			}
			if i <= j {
				swap(i, j)
				i++
				j--
			}
		}
		switch {
		case m <= j:
			hi = j
		case m >= i:
			lo = i
		default:
			return
		}
	}
}

// Offer adds the rows the tree covers to the selection sc was Reset
// for, keyed by squared distance to q, except those dead marks (nil
// marks none): the rows it skips are exactly those that could not
// enter. points may hold rows past the ones the tree was built over (an
// engine's delta); those are the caller's to offer.
func (t *Tree) Offer(sc *Scratch, points *vec.Rows, q vec.Vector, dead []bool) {
	if len(t.ids) == 0 || sc.k <= 0 {
		return
	}
	sc.offSq = slices.Grow(sc.offSq[:0], len(q))[:len(q)]
	clear(sc.offSq)
	sc.dead = dead
	t.descend(sc, points, q, 0, 0, len(t.ids), 0)
	sc.dead = nil
}

// treeSearcher is a tree bound to the rows it was built over: the
// Searcher the graph build hands AllKNN.
type treeSearcher struct {
	tree   *Tree
	points vec.Rows
	flat   []float64
}

// searchTree builds the tree over points as a Searcher. Its rows are
// one flat copy of the points, dropped with the searcher: the n queries
// of a graph build gathering leaves through the caller's per-row slices
// measured ~12 % slower on the d = 8 mixture. AllKNN over it runs
// allKNN, which walks a leaf's queries through the tree together; a
// single query (SearchInto) walks it alone.
func searchTree(points []vec.Vector) *treeSearcher {
	d := len(points[0])
	flat := make([]float64, 0, len(points)*d)
	for _, p := range points {
		flat = append(flat, p...)
	}
	s := &treeSearcher{points: vec.FlatRows(flat, d), flat: flat}
	s.tree = NewTree(&s.points)
	return s
}

func (s *treeSearcher) Search(q vec.Vector, k int) []Neighbor {
	var sc Scratch
	return s.SearchInto(&sc, q, k)
}

func (s *treeSearcher) SearchInto(sc *Scratch, q vec.Vector, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	sc.Reset(k)
	s.tree.Offer(sc, &s.points, q, nil)
	return sc.drain()
}

// queryWork is one query's rows scanned, tree nodes visited and exact
// distances computed: every row it scans, except those the leaf screen
// of a graph build's bundles rules out (screens).
type queryWork struct{ rows, nodes, exact int }

// allKNN is AllKNN over the rows the tree was built from, points. The
// queries go in bundles of bundleRows(d) rows of one leaf, the leaves
// in parallel, and each bundle walks the tree once (descendBundle).
// Every query keeps its own Scratch and makes its solo descent's
// visits, so its list, and its rows and nodes (into work[i] when work
// is not nil), are SearchInto's for k+1 with self dropped. Where
// bundles hold more than one query and the fused dots run in assembly
// (vec.FastFMA), the leaves they share are screened (scanLeaf), and
// work[i].exact counts the rows that got an exact distance. Each list
// is a pure function of (points, k), so the output is the same at every
// GOMAXPROCS.
func (s *treeSearcher) allKNN(points []vec.Vector, k int, work []queryWork) [][]Neighbor {
	t := s.tree
	n, size := len(points), bundleRows(s.points.Width())
	out := make([][]Neighbor, n)
	backing := make([]Neighbor, n*k)
	starts := t.leafStarts()
	var screen leafScreen
	if size > 1 && vec.FastFMA() {
		screen = s.newLeafScreen()
	}
	// A bundle holds a Scratch and d plane offsets per query, 256 KB at
	// d = 512, so blocks share them through a free list: par.For runs at
	// most GOMAXPROCS blocks at once, so at most that many are made.
	free := make(chan *bundle, runtime.GOMAXPROCS(0))
	par.For(len(starts)-1, 1, func(lo, hi int) {
		var b *bundle
		select {
		case b = <-free:
		default:
			b = &bundle{sc: make([]Scratch, size), q: make([]vec.Vector, size), qn: make([]float64, size), screen: screen, screened: make([]int, size)}
		}
		for leaf := lo; leaf < hi; leaf++ {
			ids := t.ids[starts[leaf]:starts[leaf+1]]
			for len(ids) > 0 {
				m := min(size, len(ids))
				t.searchBundle(b, &s.points, points, ids[:m], k+1)
				for j, id := range ids[:m] {
					sc := &b.sc[j]
					out[id] = others(backing[id*k:id*k:(id+1)*k], sc.drain(), id, k)
					if work != nil {
						work[id] = queryWork{sc.rows, sc.nodes, sc.rows - b.screened[j]}
					}
				}
				ids = ids[m:]
			}
		}
		select {
		case free <- b:
		default:
		}
	})
	return out
}

// leafStarts returns the first row (in ids) of every leaf, left to
// right, followed by n.
func (t *Tree) leafStarts() []int {
	var starts []int
	var walk func(node, lo, hi int)
	walk = func(node, lo, hi int) {
		if t.leaf(node, lo, hi) {
			starts = append(starts, lo)
			return
		}
		mid := lo + (hi-lo)/2
		walk(2*node+1, lo, mid)
		walk(2*node+2, mid, hi)
	}
	walk(0, 0, len(t.ids))
	return append(starts, len(t.ids))
}

// bundle is one worker's state for allKNN: a Scratch, a query and its
// squared norm per slot, the stack descendBundle carves its member lists
// from, and the leaf screen's buffers.
type bundle struct {
	sc    []Scratch
	q     []vec.Vector
	qn    []float64
	stack []member
	// screen is shared by every bundle of one allKNN; dots holds a leaf's
	// fused dots with two members, keep the rows one of them can enter,
	// and screened[j] the rows the screen ruled out for slot j's query.
	screen   leafScreen
	dots     [2][]float64
	keep     []int
	screened []int
}

// leafScreen is the leaf screen's data (screens): the rows as one flat
// matrix, their squared norms (vec.Dot), and the error terms of the
// screen's bound at the rows' width.
type leafScreen struct {
	flat, norms []float64
	rel, abs    float64
}

// newLeafScreen computes the rows' squared norms, n dot products in
// parallel, and the screen's error terms.
func (s *treeSearcher) newLeafScreen() leafScreen {
	n, d := s.points.Len(), s.points.Width()
	norms := make([]float64, n)
	par.For(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := s.flat[i*d : (i+1)*d]
			norms[i] = vec.Dot(row, row)
		}
	})
	rel, abs := screenTerms(d)
	return leafScreen{flat: s.flat, norms: norms, rel: rel, abs: abs}
}

// screenTerms returns the error terms of the screen's bound at width d,
// rel = 3·(d+3)·2⁻⁵³ and abs = (2d+4)·2⁻¹⁰⁷⁴ (screens derives both).
func screenTerms(d int) (rel, abs float64) {
	return float64(3*(d+3)) * 0x1p-53, float64(2*d+4) * 0x1p-1074
}

// member is a bundle query at a node: its slot, the plane bound rd its
// solo descent has there, and the plane offset on the parent's split
// dimension it had before entering (restored on the way out).
type member struct {
	slot    int
	rd, old float64
}

// searchBundle runs the k-nearest queries points[id] for the rows ids,
// at most the bundle's slots, through the tree together: query j in
// b.sc[j], its work counters zeroed.
func (t *Tree) searchBundle(b *bundle, rows *vec.Rows, points []vec.Vector, ids []int, k int) {
	b.stack = b.stack[:0]
	for j, id := range ids {
		sc := &b.sc[j]
		sc.Reset(k)
		sc.offSq = slices.Grow(sc.offSq[:0], rows.Width())[:rows.Width()]
		clear(sc.offSq)
		sc.rows, sc.nodes = 0, 0
		b.screened[j] = 0
		b.q[j] = points[id]
		if b.screen.norms != nil {
			b.qn[j] = b.screen.norms[id]
		}
		b.stack = append(b.stack, member{slot: j})
	}
	t.descendBundle(b, rows, 0, 0, len(t.ids), b.stack)
}

// descend searches the node over ids[lo:hi], whose rows lie at squared
// distance at least rd from q. Internal nodes keep that bound with
// Arya and Mount's incremental offsets: sc.offSq[s] holds the squared
// offset from q to the nearest split plane on dimension s that the path
// crossed, rd their running sum, and crossing a plane on s replaces
// that one term — O(1) per node, where a fresh box distance for both
// children would be O(d) and, on data where nothing prunes, lose to the
// scan. Once the selection is full, every leaf first checks its own box
// (the rows' per-dimension extents, vec.BoxSqDist, whose AVX2 body
// costs about as much as a row or two of the scan it may skip). Where
// the planes are loose the box is what prunes: at d = 128 a path
// crosses planes on few of the dimensions, and on INRIASim checking
// every leaf scans 1759 rows per query where checking only the leaves
// the planes already put at θ/4 or more scans 2442. Where nothing
// prunes (an isotropic Gaussian at d = 32) the checks cost ~15 % over
// that gate (docs/PERFORMANCE.md). Which rows a query computes depends
// on the order it meets the leaves in, through θ; descendBundle keeps
// that order for every query of a bundle. A leaf a bundle reaches with
// two or more members is scanLeaf, this leaf step with a screen between
// the box check and the scan.
func (t *Tree) descend(sc *Scratch, points *vec.Rows, q vec.Vector, node, lo, hi int, rd float64) {
	sc.nodes++
	if t.leaf(node, lo, hi) {
		if len(sc.out) == sc.k && t.prunes(sc, t.boxDist(q, node)) {
			return
		}
		sc.dist = slices.Grow(sc.dist[:0], hi-lo)[:hi-lo]
		points.SqDistIDs(q, t.ids[lo:hi], sc.dist)
		sc.OfferAll(t.ids[lo:hi], sc.dist)
		return
	}
	s := t.dim[node]
	off := q[s] - t.split[node]
	mid := lo + (hi-lo)/2
	near, far := 2*node+1, 2*node+2
	nlo, nhi, flo, fhi := lo, mid, mid, hi
	if off >= 0 {
		near, far = far, near
		nlo, nhi, flo, fhi = flo, fhi, nlo, nhi
	}
	t.descend(sc, points, q, near, nlo, nhi, rd)
	old := sc.offSq[s]
	sq := off * off
	farRD := rd + (sq - old)
	if t.prunes(sc, farRD) {
		return
	}
	sc.offSq[s] = sq
	t.descend(sc, points, q, far, flo, fhi, farRD)
	sc.offSq[s] = old
}

// descendBundle is descend for the bundle queries ms together: each
// leaf it reaches is visited by every member, back to back (descend's
// leaf step, so a member whose box check prunes skips it), while the
// leaf's rows are in cache. A query's visits are its solo ones, in the
// same order and against the same θ: its state (selection, offsets,
// rd) is its own, so only its own visits move it, and it enters each
// child exactly when descend would. At an internal node the members
// split by their near side, by descend's test, and the children are
// visited in three passes:
//
//  1. the lower child, with the members it is near to;
//  2. the upper child, with the members it is near to and those of pass
//     1 whose far bound, checked now that their near side is done, does
//     not prune;
//  3. the lower child again, with the members of the upper side whose
//     far bound does not prune, their near side done in pass 2.
//
// A bundle of one is descend. So is a leaf, unless two or more members
// reach it and the leaf screen is on (allKNN): then it is scanLeaf.
func (t *Tree) descendBundle(b *bundle, points *vec.Rows, node, lo, hi int, ms []member) {
	if len(ms) > 1 && b.screen.norms != nil && t.leaf(node, lo, hi) {
		t.scanLeaf(b, points, node, t.ids[lo:hi], ms)
		return
	}
	if len(ms) <= 1 || t.leaf(node, lo, hi) {
		for _, m := range ms {
			t.descend(&b.sc[m.slot], points, b.q[m.slot], node, lo, hi, m.rd)
		}
		return
	}
	s, split := t.dim[node], t.split[node]
	mid := lo + (hi-lo)/2
	base := len(b.stack)
	for _, m := range ms {
		b.sc[m.slot].nodes++
		if !(b.q[m.slot][s]-split >= 0) {
			b.stack = append(b.stack, m)
		}
	}
	t.descendBundle(b, points, 2*node+1, lo, mid, b.stack[base:])
	b.stack = b.stack[:base]
	for _, m := range ms {
		sc := &b.sc[m.slot]
		if off := b.q[m.slot][s] - split; off >= 0 {
			b.stack = append(b.stack, member{slot: m.slot, rd: m.rd, old: sc.offSq[s]})
		} else if f, ok := t.enterFar(sc, m, s, off); ok {
			b.stack = append(b.stack, f)
		}
	}
	t.descendBundle(b, points, 2*node+2, mid, hi, b.stack[base:])
	b.leave(base, s)
	for _, m := range ms {
		if off := b.q[m.slot][s] - split; off >= 0 {
			if f, ok := t.enterFar(&b.sc[m.slot], m, s, off); ok {
				b.stack = append(b.stack, f)
			}
		}
	}
	t.descendBundle(b, points, 2*node+1, lo, mid, b.stack[base:])
	b.leave(base, s)
}

// scanLeaf is descend's leaf step for the bundle members ms at leaf
// node over the rows ids, with the screen. A member whose selection is
// not yet full scans the rows exactly, as descend does: its θ is +Inf,
// which rules out nothing, and at d = 512 a query's first leaf is ~47
// of the ~104 rows it scans. A full member first checks the leaf's box,
// and the members that pass go through the fused dot kernel in pairs,
// each row loaded once for both; a member left without a partner goes
// alone. Members are independent, so the order they scan the leaf in
// changes nothing.
func (t *Tree) scanLeaf(b *bundle, points *vec.Rows, node int, ids []int, ms []member) {
	pend := -1
	for _, m := range ms {
		sc, q := &b.sc[m.slot], b.q[m.slot]
		sc.nodes++
		switch {
		case len(sc.out) < sc.k:
			t.scanExact(sc, points, q, ids)
		case t.prunes(sc, t.boxDist(q, node)):
		case pend < 0:
			pend = m.slot
		default:
			da, db := growFloats(&b.dots[0], len(ids)), growFloats(&b.dots[1], len(ids))
			vec.DotRowsFMA2(b.q[pend], q, b.screen.flat, ids, da, db)
			t.screenRows(b, points, pend, ids, da)
			t.screenRows(b, points, m.slot, ids, db)
			pend = -1
		}
	}
	if pend >= 0 {
		da := growFloats(&b.dots[0], len(ids))
		vec.DotRowsFMA(b.q[pend], b.screen.flat, ids, da)
		t.screenRows(b, points, pend, ids, da)
	}
}

// growFloats returns (*buf)[:n], growing *buf when it is short.
func growFloats(buf *[]float64, n int) []float64 {
	*buf = slices.Grow((*buf)[:0], n)[:n]
	return *buf
}

// scanExact offers the rows ids to sc at their exact squared distance
// from q, as descend's leaf scan does.
func (t *Tree) scanExact(sc *Scratch, points *vec.Rows, q vec.Vector, ids []int) {
	sc.dist = growFloats(&sc.dist, len(ids))
	points.SqDistIDs(q, ids, sc.dist)
	sc.OfferAll(ids, sc.dist)
}

// screenRows is the screened scan of the rows ids for the member in
// slot, given its fused dots with them: a row the screen rules out is
// counted as scanned and not offered — its exact distance is above θ, so
// the offer would have passed it by — and the rest are offered at their
// exact distance (scanExact), with the bits descend gives them.
func (t *Tree) screenRows(b *bundle, points *vec.Rows, slot int, ids []int, dots []float64) {
	sc, sr := &b.sc[slot], &b.screen
	th := sc.theta()*t.slack + treeAbsSlack
	qn := b.qn[slot]
	keep := b.keep[:0]
	for j, id := range ids {
		if !screens(qn, sr.norms[id], dots[j], sr.rel, sr.abs, th) {
			keep = append(keep, id)
		}
	}
	b.keep = keep
	sc.rows += len(ids) - len(keep)
	b.screened[slot] += len(ids) - len(keep)
	t.scanExact(sc, points, b.q[slot], keep)
}

// enterFar is descend's step from a query's near child to its far one
// at a node splitting on s, the query offset off from the plane: unless
// the far bound prunes, it sets the query's offset on s and returns the
// member with that bound and the offset it replaced. It is descend's
// code, kept out of descend so that every solo search (Tree.Offer)
// pays no call for it.
func (t *Tree) enterFar(sc *Scratch, m member, s int32, off float64) (member, bool) {
	old := sc.offSq[s]
	sq := off * off
	farRD := m.rd + (sq - old)
	if t.prunes(sc, farRD) {
		return member{}, false
	}
	sc.offSq[s] = sq
	return member{slot: m.slot, rd: farRD, old: old}, true
}

// leave restores the offset on s of every member on the stack from base
// on and pops them.
func (b *bundle) leave(base int, s int32) {
	for _, m := range b.stack[base:] {
		b.sc[m.slot].offSq[s] = m.old
	}
	b.stack = b.stack[:base]
}

// boxDist is the squared distance from q to leaf node's box, summed in
// the kernels' four lanes (any order would do for the bound).
func (t *Tree) boxDist(q vec.Vector, node int) float64 {
	d := len(q)
	b := 2 * d * t.leafNumber(node)
	return vec.BoxSqDist(q, t.box[b:b+d], t.box[b+d:b+2*d])
}

// prunes reports whether rows whose computed bound is b can be skipped:
//
//	b > θ·slack + treeAbsSlack,  slack = 1 + treeRelSlack + (d + 2·depth + 2)·2⁻⁵²,
//
// with θ the current k-th squared distance (+Inf until k rows are
// held, which prunes nothing). A skipped row p would have had to
// satisfy K(p) ≤ θ to enter — a row at exactly θ can still win on its
// id — where K is the distance kernel's computed value. Every row the
// bound covers has K(p) > θ; let u = 2⁻⁵³ and γ_m = m·u/(1 − m·u).
//
//  1. Per dimension. The bound's term on dimension j is fl(e_j)² for
//     e_j = fl(q_j − c) with c a coordinate p_j lies beyond: a split
//     value (p_j ≥ c > q_j or p_j ≤ c ≤ q_j) or the box's min or max.
//     Rounding is monotone and symmetric, so the kernel's difference
//     |fl(q_j − p_j)| ≥ |e_j| and its square is at least the term —
//     subnormal and zero operands included, and ±0 squares to +0 on
//     both sides. A later plane on s lies inside the cell of an earlier
//     one, so offSq[s] only grows along a path and every update adds
//     fl(sq − old) ≥ 0.
//  2. The kernel's sum. K(p) adds the d non-negative squares in its
//     fixed four-lane order; addition is monotone too, so K(p) is at
//     least that order's sum of the terms (0 on the other dimensions),
//     and with T their exact sum that is ≥ T·(1 − γ_d). A sum of
//     non-negative terms that lands among the subnormals is exact, so
//     there is no absolute term.
//  3. The bound. The plane bound rd is built by at most depth updates
//     of two roundings each, every one relative to a partial sum of the
//     final T, so rd ≤ T·(1 + γ_{2·depth}); a leaf's box distance is a
//     sum of d terms, ≤ T·(1 + γ_d).
//  4. So b > θ·slack gives K(p) ≥ T·(1 − γ_d) > θ·slack·(1 − γ_d)/(1 + γ_m) ≥ θ
//     for m = 2·depth or d: slack's rounding term is at least twice
//     γ_d + γ_m (and pays for the product θ·slack's own rounding), so
//     it holds at any d and depth — at d = 512 it is ~1.2e-13, under the
//     1e-9 of treeRelSlack.
//  5. θ = 0, k duplicates of q already held: rows are skipped only at
//     b > 2⁻¹⁰⁰⁰, which needs a positive term, a positive square in
//     K(p), and so K(p) > 0. A term of +Inf makes b +Inf, which skips
//     rows against a finite θ only because their K(p) = +Inf too;
//     +Inf − +Inf is NaN, as is a box distance over a NaN, and a NaN
//     bound never prunes.
func (t *Tree) prunes(sc *Scratch, b float64) bool {
	return b > sc.theta()*t.slack+treeAbsSlack
}

// screens reports whether the leaf screen of a graph build's bundles
// can skip a row p, given a query q's squared norm qn, p's squared norm
// pn (both vec.Dot), their fused dot g (vec.DotRowsFMA) and the
// threshold th = θ·slack + treeAbsSlack of prunes:
//
//	b = fl(A − E) > th,  s = fl(qn + pn),  A = fl(s − 2g),  E = fl(fl(rel·s) + abs),
//
// with rel = 3·(d+3)·u and abs = (2d+4)·2⁻¹⁰⁷⁴ (screenTerms). A skipped
// row cannot enter, because b ≤ T, the exact ‖q − p‖². The kernel's
// value K(p) rounds each difference and square once and adds d
// non-negative terms, so K(p) ≥ T·(1 − γ_{d+2}) − d·2⁻¹⁰⁷⁵, the last for
// squares that underflow. Then b > th gives T > θ·slack + 2⁻¹⁰⁰⁰, and
// K(p) > θ as in step 4 of prunes: slack pays the relative term and
// treeAbsSlack the absolute one. With Q = ‖q‖², P = ‖p‖², D = q·p
// exactly, so T = Q + P − 2D, and u, γ_m as in prunes, E needs
// E ≥ c·γ_{d+3}·(Q + P), and c is:
//
//  1. Any order of d products and their sums, fused or not, is off by
//     at most γ_d·Σ|q_j·p_j| and, where a product underflows, by 2⁻¹⁰⁷⁵
//     per product (a sum that lands among the subnormals is exact). So
//     |qn − Q| ≤ γ_d·Q, |pn − P| ≤ γ_d·P and |g − D| ≤ γ_d·(Q + P)/2,
//     since |q_j·p_j| ≤ (q_j² + p_j²)/2. The underflow terms come to at
//     most 4d·2⁻¹⁰⁷⁵ in A, 2g doubling g's, and abs covers them.
//  2. s and A round once each, and |s − 2g| ≤ 2·(Q + P)·(1 + γ_d + u)
//     as T ≤ 2·(Q + P), so |A − T| ≤ (2γ_d + 3u)·(Q + P) + O(u²). For
//     fl(A − E) ≤ T its own rounding must fit as well, u·|A − E| ≤
//     2u·(Q + P), so E must reach (2γ_d + 5u)·(Q + P) ≤ 2γ_{d+3}·(Q + P):
//     c = 2.
//  3. E is computed from s ≥ (Q + P)·(1 − γ_{d+1}) and rounds twice, so
//     E ≥ 3·(d+3)·u·(1 − γ_{d+3})·(Q + P), which is at least
//     2γ_{d+3}·(Q + P) = 2·(d+3)·u·(Q + P)/(1 − (d+3)·u) for any d below
//     2⁵⁰: rel is c = 2 with half again to spare. A compiler that fuses
//     s − 2g or rel·s + abs into one FMA only rounds less.
//  4. Nothing needs the inputs finite. A NaN anywhere makes b NaN, which
//     never skips. A norm or s that overflows makes E = +Inf and A +Inf
//     or NaN, so b is NaN: rows with |p_j| ≳ 1e154, and ±Inf rows, take
//     the exact scan. b = +Inf with s finite needs fl(2g) = −Inf, so
//     T ≥ Q + P is at the overflow threshold, and K(p) exceeds any θ
//     whose th is finite.
func screens(qn, pn, g, rel, abs, th float64) bool {
	s := qn + pn
	return s-2*g-(s*rel+abs) > th
}
