package mogul

import (
	"math"
	"testing"

	"mogul/internal/fanout"
)

// FuzzProbeBound holds an index's probe bound to the probes it bounds:
// on small lattice point sets — duplicates, tombstones, delta items,
// F32 storage, a kernel σ small enough to underflow, and the base a
// Compact rebuilds — every affinity TopKVectorWithAffinity reports is
// at most fanout.AffinityBound for its query, and every score it
// returns is at most SMax in magnitude.
//
//	go test -run '^$' -fuzz 'FuzzProbeBound$' -fuzztime 30s .
func FuzzProbeBound(f *testing.F) {
	f.Add([]byte{1, 0, 4, 0, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 4, 3, 2, 1, 0, 0, 2, 2})
	f.Add([]byte{2, 3, 9, 1, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 4, 4, 0, 1, 3, 3, 1, 2, 0, 0, 2})
	f.Add([]byte{0, 0x1f, 2, 2, 9, 9, 9, 9, 1, 1, 1, 1, 3, 3, 3, 3, 5, 5, 7, 7, 2, 8, 6, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		dim := int(data[0])%3 + 1
		flags := data[1]
		k := int(data[2])%8 + 1
		sigma := []float64{0, 0.05, 0.5, 3}[data[3]%4]
		vals := data[4:]
		n := min(len(vals)/dim, 48)
		pts := make([]Vector, n)
		for i := range pts {
			pts[i] = make(Vector, dim)
			for j := range pts[i] {
				pts[i][j] = float64(vals[i*dim+j]%9) - 4
			}
		}
		base := max(2*n/3, 2)
		if base > n {
			return
		}
		prec := F64
		if flags&1 != 0 {
			prec = F32
		}
		ix, err := Build(pts[:base], Options{Seed: 1, Precision: prec, Sigma: sigma})
		if err != nil {
			return
		}
		for _, p := range pts[base:] {
			if _, err := ix.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		for d := 0; d < int(flags>>1)&7; d++ {
			_ = ix.Delete(int(vals[d%len(vals)]) % base) // refused for the last live item
		}
		check := func(stage string) {
			b := ix.ProbeBound()
			if b == nil {
				return
			}
			for _, p := range pts {
				for _, shift := range []float64{0, 0.37, 5} {
					q := make(Vector, dim)
					for j := range q {
						q[j] = p[j] + shift*float64(j+1)
					}
					res, aff, err := ix.TopKVectorWithAffinity(q, k)
					if err != nil {
						return // every base item deleted: nothing to probe
					}
					if ub := fanout.AffinityBound(b, q); !(aff <= ub) {
						t.Fatalf("%s: query %v: affinity %v above its bound %v", stage, q, aff, ub)
					}
					for _, r := range res {
						if !(math.Abs(r.Score) <= b.SMax) {
							t.Fatalf("%s: query %v: item %d scores %v, above SMax %v", stage, q, r.Node, r.Score, b.SMax)
						}
					}
				}
			}
		}
		check("with delta")
		if flags&0x10 != 0 {
			if err := ix.Compact(); err != nil {
				return // fewer than two live points to rebuild from
			}
			check("compacted")
		}
	})
}
