package fanout

import (
	"math"

	"mogul/internal/core"
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

// Gated reports whether the out-of-sample probe of a shard with bound b
// can be left unasked in an in-database query whose owner answered at
// affinity own with a k-th score of kth (Merge.Kth): when kth > 0 and
// 2·RelativeAffinity(AffinityBound(b, q), own)·b.SMax < kth, no answer
// of the probe, priced as AddProbes prices it, can reach the owner's
// k-th score, so the merged top-k is bit-identical to asking. A nil
// bound (the shard reports none) never gates.
func Gated(b *core.ProbeBound, q []float64, own, kth float64) bool {
	if b == nil || !(kth > 0) || len(q) != b.Dim || len(b.Radii) == 0 {
		return false
	}
	return 2*RelativeAffinity(AffinityBound(b, q), own)*b.SMax < kth
}
