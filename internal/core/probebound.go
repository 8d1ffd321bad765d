package core

import (
	"math"
	"slices"

	"mogul/internal/cholesky"
	"mogul/internal/vec"
)

// ProbeBound is what a fan-out needs to know, without asking, that an
// out-of-sample probe of this index cannot place in a ranking: a cover
// of every point the probe may pick as a surrogate, the kernel that
// weighs them, and the largest score any query of unit mass can reach.
// docs/SHARDING.md, "Gated probes", derives both bounds; internal/fanout
// holds the rule that reads them.
type ProbeBound struct {
	// Dim is the feature dimension; Centres holds Dim values per ball.
	Dim int
	// Centres and Radii are the balls: ball b is centred at
	// Centres[b*Dim:(b+1)*Dim] and contains every base point assigned
	// to it. A Louvain cluster is one ball about its out-of-sample mean;
	// each border member is its own ball of radius 0.
	Centres []float64
	Radii   []float64
	// Sigma is the heat-kernel bandwidth of the surrogate weights.
	Sigma float64
	// SMax bounds |x_i| for every node i and every non-negative query
	// vector with entries at most 1: max_i (<Lᵀ>⁻¹|D|⁻¹<L>⁻¹𝟙)_i, where
	// <L> is L's comparison matrix (unit diagonal, -|L_ij| off it).
	SMax float64
}

// ProbeBound derives the index's probe bound from the out-of-sample
// quantizer, the graph's σ and the factor, in O(nnz(L) + n·d); nothing
// of it is saved, and nothing of it is kept: the fan-out that asks holds
// on to it. It is nil when the bound cannot gate anything (a σ or score
// bound that is not a positive finite number).
func (ix *Index) ProbeBound() *ProbeBound {
	sigma := ix.graph.Sigma
	smax := scoreBound(ix.factor)
	if !(sigma > 0 && sigma <= math.MaxFloat64 && smax <= math.MaxFloat64) {
		return nil
	}
	ix.ensureOOS()
	pts := &ix.graph.Points
	dim := pts.Width()
	border := ix.layout.Border()
	balls := 0
	for c, members := range ix.oosMembers {
		if c == border {
			balls += len(members)
		} else if len(members) > 0 {
			balls++
		}
	}
	b := &ProbeBound{Dim: dim, Sigma: sigma, SMax: smax,
		Centres: make([]float64, 0, balls*dim), Radii: make([]float64, 0, balls)}
	var row, dist []float64
	for c, members := range ix.oosMembers {
		switch {
		case len(members) == 0:
		case c == border:
			for _, id := range members {
				row = pts.Row(id, row)
				b.Centres = append(b.Centres, row...)
				b.Radii = append(b.Radii, 0)
			}
		default:
			dist = slices.Grow(dist[:0], len(members))[:len(members)]
			pts.SqDistIDs(ix.oosMeans[c], members, dist)
			r2 := 0.0
			for _, d := range dist {
				r2 = max(r2, d)
			}
			b.Centres = append(b.Centres, ix.oosMeans[c]...)
			b.Radii = append(b.Radii, math.Sqrt(r2))
		}
	}
	for _, vs := range [][]float64{b.Centres, b.Radii} {
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil
			}
		}
	}
	return b
}

// scoreBound is max_i (<Lᵀ>⁻¹|D|⁻¹<L>⁻¹𝟙)_i over the factor the searches
// substitute through, in its storage width: a forward and a back
// substitution with every entry of L and D replaced by its magnitude
// and every subtraction by an addition.
func scoreBound(f *cholesky.Factor) float64 {
	if f.Val32 != nil {
		return absSolveMax(f, f.Val32)
	}
	return absSolveMax(f, f.Val)
}

func absSolveMax[P vec.Float](f *cholesky.Factor, val []P) float64 {
	z := make([]float64, f.N)
	for i := range z {
		z[i] = 1
	}
	for j := 0; j < f.N; j++ {
		a, b := f.ColPtr[j], f.ColPtr[j+1]
		for t, i := range f.RowIdx[a:b] {
			z[i] += math.Abs(float64(val[a+t])) * z[j]
		}
		z[j] /= math.Abs(f.D[j])
	}
	smax := 0.0
	for i := f.N - 1; i >= 0; i-- {
		a, b := f.ColPtr[i], f.ColPtr[i+1]
		s := z[i]
		for t, j := range f.RowIdx[a:b] {
			s += math.Abs(float64(val[a+t])) * z[j]
		}
		z[i] = s
		smax = max(smax, s)
	}
	return smax
}
