package fanout

import (
	"math"

	"mogul/internal/core"
	"mogul/internal/knn"
	"mogul/internal/vec"
)

// gateSlack is the relative margin AffinityBound keeps over the
// rounding of the affinity it bounds (docs/SHARDING.md, "Gated probes"):
// the distance to the nearest ball is shrunk by it before it enters the
// kernel, which covers the two sides' distances rounding apart, also
// where the kernel underflows, and the kernel value is grown by it,
// which covers the rounding of the probe's mean of kernel weights.
const gateSlack = 1e-9

// AffinityBound bounds the raw kernel affinity any out-of-sample probe
// of the shard b describes can report for q: exp(−D²/2σ²), with D the
// distance from q to the nearest of b's balls. Every surrogate the
// probe may pick lies in a ball, so it is at least D away, and the
// affinity is the mean of their kernel weights.
func AffinityBound(b *core.ProbeBound, q []float64) float64 {
	centres := vec.FlatRows(b.Centres, b.Dim)
	dmin := math.Inf(1)
	for i, r := range b.Radii {
		d2 := centres.SqDist(q, i)
		if r == 0 && d2 >= dmin*dmin {
			continue
		}
		d := math.Sqrt(d2) - r
		if !(d > 0) {
			return 1
		}
		dmin = min(dmin, d)
	}
	d := dmin * (1 - gateSlack)
	return (1 + gateSlack) * math.Exp(-d*d/(2*b.Sigma*b.Sigma))
}

// The margins of the tree's answer; near derives them.
const (
	// thresholdSlack inflates the distance threshold T over the rounding
	// of its derivation and of the sweep's kernel.
	thresholdSlack = 1e-6
	// nearSlack inflates the squared distances the walk compares against
	// over the rounding of the distance kernels and the cancellation in
	// the sweep's √d² − r.
	nearSlack = 1 + 1e-9
	// minExponent is the smallest kernel exponent T is derived at: below
	// it the derivation's absolute rounding is no longer small against
	// thresholdSlack, and the sweep answers.
	minExponent = 1e-8
	// minThreshold and maxThreshold keep T, σ and every square the
	// sweep takes at or past T among the normal numbers.
	minThreshold = 0x1p-400
	maxThreshold = 0x1p400
)

// gateLeaf is the most balls a tree leaf holds: nodes split at the
// median until they hold at most this many, so a leaf holds 3–5 (fewer
// only in a tree over fewer balls). At dist_fanout's shape (d = 8,
// 506–559 balls a shard) leaves of at most 5 make ~72 box and ball tests
// a call, leaves of at most 4 ~71, and leaves of at most 8 ~89. Five
// keeps those trees at 255 nodes, whose boxes fit one 32 KB allocation;
// four needs 287, whose boxes round up to 40 KB, for no measurable
// speed.
const gateLeaf = 5

// Gate is a shard's probe bound (core.ProbeBound) together with the
// k-d tree over its ball centres that answers Gated. The tree is built
// once, when the bound enters the id map (IDMap.SetBound), and is
// immutable; it holds no copy of the balls, only their order and one
// box per node. A nil *Gate is a shard without a bound.
type Gate struct {
	b *core.ProbeBound
	// order lists the balls so that every node's balls are a contiguous
	// range of it.
	order []int
	// nodes are in preorder: node i's first child is i+1.
	nodes []gateNode
	// boxes holds node i's per-dimension minima of its centres at
	// [2di, 2di+d) and their maxima at [2di+d, 2d(i+1)).
	boxes []float64
}

// gateNode is one node of a Gate's tree.
type gateNode struct {
	// lo and hi delimit the node's balls, order[lo:hi].
	lo, hi int32
	// next is the node that follows the node's subtree in preorder: i+1
	// for a leaf.
	next int32
	// reach is the largest radius among the node's balls.
	reach float64
}

// NewGate builds the gate of bound b: the tree over b's ball centres,
// splitting each node's balls at the median of the centres' widest
// dimension (knn.SelectRank), in O(n·d·log n): ~0.17 ms over 528 balls
// at d = 8. b is retained, not copied, and must not change afterwards.
// NewGate(nil) is nil. A bound whose centres do not hold Dim values per
// ball gets no tree, and Gated answers it by the sweep.
func NewGate(b *core.ProbeBound) *Gate {
	if b == nil {
		return nil
	}
	g := &Gate{b: b}
	n, d := len(b.Radii), b.Dim
	if n == 0 || d <= 0 || len(b.Centres) != n*d || n > math.MaxInt32 {
		return g
	}
	g.order = make([]int, n)
	for i := range g.order {
		g.order[i] = i
	}
	g.nodes = make([]gateNode, 0, gateNodes(n))
	g.boxes = make([]float64, 0, 2*d*cap(g.nodes))
	g.build(0, n, make([]float64, n))
	return g
}

// gateNodes is the node count of a tree over n balls.
func gateNodes(n int) int {
	if n <= gateLeaf {
		return 1
	}
	return 1 + gateNodes(n/2) + gateNodes(n-n/2)
}

// build appends the subtree over order[lo:hi] in preorder; keys is
// scratch for the split coordinates of all n balls.
func (g *Gate) build(lo, hi int, keys []float64) {
	d := g.b.Dim
	centre := func(ball int) []float64 { return g.b.Centres[ball*d : (ball+1)*d] }
	i := len(g.nodes)
	g.nodes = append(g.nodes, gateNode{lo: int32(lo), hi: int32(hi)})
	g.boxes = g.boxes[:2*d*(i+1)]
	box := g.boxes[2*d*i:]
	mins, maxs := box[:d], box[d:]
	reach := g.b.Radii[g.order[lo]]
	copy(mins, centre(g.order[lo]))
	copy(maxs, mins)
	for _, ball := range g.order[lo+1 : hi] {
		vec.MinMax(mins, maxs, centre(ball))
		reach = max(reach, g.b.Radii[ball])
	}
	g.nodes[i].reach = reach
	if hi-lo > gateLeaf {
		s := 0
		for j := 1; j < d; j++ {
			if maxs[j]-mins[j] > maxs[s]-mins[s] {
				s = j
			}
		}
		k := keys[lo:hi]
		for j, ball := range g.order[lo:hi] {
			k[j] = centre(ball)[s]
		}
		m := (hi - lo) / 2
		knn.SelectRank(k, g.order[lo:hi], m)
		g.build(lo, lo+m, keys)
		g.build(lo+m, hi, keys)
	}
	g.nodes[i].next = int32(len(g.nodes))
}

// Gated reports whether the out-of-sample probe of a shard whose gate
// is g can be left unasked in an in-database query whose owner answered
// at affinity own with a k-th score of kth (Merge.Kth): when kth > 0 and
// 2·RelativeAffinity(AffinityBound(b, q), own)·b.SMax < kth, no answer
// of the probe, priced as AddProbes prices it, can reach the owner's
// k-th score, so the merged top-k is bit-identical to asking. A nil
// gate (the shard reports no bound) never gates.
//
// The rule is answered without the sweep over every ball that
// AffinityBound makes (docs/SHARDING.md, "How the gate is answered"):
// the rule gates every q whose distance to each ball exceeds a
// threshold T derived from own, kth, σ and S_max, and the tree asks
// whether any ball comes within T. Only when one does, or when T cannot
// be derived, is the sweep run and its rule applied as written, so every
// answer is the sweep's.
func Gated(g *Gate, q []float64, own, kth float64) bool {
	gated, _ := g.Work(q, own, kth)
	return gated
}

// Work is Gated, also reporting the box and ball tests the answer took:
// the tree walk's, plus one per ball when the sweep runs.
func (g *Gate) Work(q []float64, own, kth float64) (gated bool, tests int) {
	if g == nil {
		return false, 0
	}
	b := g.b
	if !(kth > 0) || len(q) != b.Dim || len(b.Radii) == 0 {
		return false, 0
	}
	if t, ok := threshold(b, own, kth); ok && len(g.nodes) > 0 && finite(q) {
		var near bool
		if near, tests = g.near(q, t); !near {
			return true, tests
		}
	}
	return 2*RelativeAffinity(AffinityBound(b, q), own)*b.SMax < kth, tests + len(b.Radii)
}

// threshold derives the distance T past which the sweep's rule gates:
// with a = kth/(2·S_max), times own when own > 0, AffinityBound is below
// a once the nearest ball is farther than
//
//	T = σ·√(2·ln((1 + gateSlack)/a)) / (1 − gateSlack),
//
// which is inflated by thresholdSlack. ok is false where T is not
// derived: the rule's relative price would have to reach 1 (kth ≥
// 2·S_max, where pricing at 1 decides), the exponent is below
// minExponent (a at or within ~1e-8 of 1), or T, NaN included, lies
// outside [minThreshold, maxThreshold].
func threshold(b *core.ProbeBound, own, kth float64) (t float64, ok bool) {
	tau := kth / (2 * b.SMax)
	a := tau
	if own > 0 {
		a *= own
	}
	x := math.Log((1 + gateSlack) / a)
	t = b.Sigma * math.Sqrt(2*x) / (1 - gateSlack) * (1 + thresholdSlack)
	return t, tau < 1 && x >= minExponent && t >= minThreshold && t <= maxThreshold
}

// finite reports whether every coordinate of q is a finite number.
func finite(q []float64) bool {
	for _, v := range q {
		if v-v != 0 {
			return false
		}
	}
	return true
}

// near reports whether the tree finds a ball that may come within t of
// q, and the box and ball tests it made. It prunes a node when
//
//	BoxSqDist(q, box) > (t + reach)²·nearSlack
//
// and passes a ball (centre c, radius r) when
//
//	SqDist(q, c) > (t + r)²·nearSlack;
//
// a NaN on either side neither prunes a node nor passes a ball. When
// near is false, the sweep computes every ball's distance
// d = √SqDist(q, c) − r above t, and so gates:
//
//  1. A passed ball. The sweep reads the same SqDist, K. From
//     K > (t + r)²·nearSlack, with the square and product rounded, the
//     exact √K exceeds (t + r)(1 + 5·10⁻¹⁰ − 3u), u = 2⁻⁵³, and the
//     rounded √K − r exceeds t + (t + r)(5·10⁻¹⁰ − 5u) > t: the slack,
//     not thresholdSlack, pays for the cancellation when r ≫ t.
//  2. A pruned node. As in knn.Tree.prunes, each of the box's per-
//     dimension terms is at most the kernel's for every centre inside
//     the box (rounding is monotone), and the two sums of d non-negative
//     terms differ from their exact values by γ_d = d·u/(1 − d·u) each;
//     so every ball below has K > (t + reach)²·nearSlack·(1 − 2γ_d − 4u),
//     and step 1 holds while 2γ_d is small against 10⁻⁹: up to d ≈ 10⁵.
//  3. The rule. t is the exact T·(1 + thresholdSlack) within six
//     roundings, and T's exponent ln((1 + gateSlack)/a) is within an
//     absolute 3u of exact (two roundings in a, one in the quotient; the
//     logarithm's own error is below one ulp of its result). The sweep
//     computes the exponent from D > t/(1 + thresholdSlack) within a
//     relative 5u, the kernel and its growth within 2u, and the price
//     and comparison within 2u more: 7u on the exponent, plus 17u·x
//     from the relative errors of t and of the sweep's exponent. At
//     x ≥ minExponent that is at most (7u + 17u·x)/(2x) ≤ 4·10⁻⁸ in
//     distance terms, under thresholdSlack: the sweep's affinity is
//     below a·e^(−10⁻⁶·x), so below own (tau < 1), and its price times
//     2·S_max, rounded, is below kth.
//  4. Range. With t in [2⁻⁴⁰⁰, 2⁴⁰⁰] and x in [10⁻⁸, 745], σ and every
//     square of a distance at or past T that the sweep takes are normal
//     numbers, so no step above meets an absolute rounding.
func (g *Gate) near(q []float64, t float64) (near bool, tests int) {
	b := g.b
	d := b.Dim
	centres := vec.FlatRows(b.Centres, d)
	for i := 0; i < len(g.nodes); i++ {
		nd := &g.nodes[i]
		box := g.boxes[2*d*i : 2*d*(i+1)]
		tests++
		if lim := t + nd.reach; vec.BoxSqDist(q, box[:d], box[d:]) > lim*lim*nearSlack {
			i = int(nd.next) - 1
			continue
		}
		if int(nd.next) != i+1 {
			continue
		}
		for _, ball := range g.order[nd.lo:nd.hi] {
			tests++
			lim := t + b.Radii[ball]
			if !(centres.SqDist(q, ball) > lim*lim*nearSlack) {
				return true, tests
			}
		}
	}
	return false, tests
}
