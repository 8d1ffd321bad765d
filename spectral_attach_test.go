package mogul

// The spectral engine's out-of-sample attach (attachLive in spectral.go)
// against the sweep it replaced. attachSweep below is that sweep, kept as
// the oracle: the attach must select the same surrogates in the same
// order with the same weight and mass bits, whatever the storage form,
// the tombstones or the delta rows.

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// attachSweep is attachLive before the tree: a squared-distance sweep
// over every stored point (the base only with baseOnly), a bounded
// insertion selection over (squared distance, id) of the live ones, and
// the heat-kernel weighting. (The sweep ran the four-row batch kernel,
// whose bits per row are the one-row kernel's.)
func attachSweep(st *spectralState, kAttach int, q Vector, baseOnly bool) (ids []int, ws []float64, mass float64) {
	n := st.numPoints()
	if baseOnly {
		n = st.baseN
	}
	for i := 0; i < n; i++ {
		if st.dead[i] {
			continue
		}
		d := st.points.SqDist(q, i)
		if len(ids) == kAttach && d >= ws[kAttach-1] {
			continue
		}
		pos := len(ids)
		if pos < kAttach {
			ids, ws = append(ids, 0), append(ws, 0)
		} else {
			pos = kAttach - 1
		}
		for pos > 0 && ws[pos-1] > d {
			ids[pos], ws[pos] = ids[pos-1], ws[pos-1]
			pos--
		}
		ids[pos], ws[pos] = i, d
	}
	inv := 0.0
	if st.sigma > 0 {
		inv = 1 / (2 * st.sigma * st.sigma)
	}
	for t, d := range ws {
		ws[t] = math.Exp(-d * inv)
		mass += ws[t]
	}
	for t := range ws {
		if mass > 0 {
			ws[t] /= mass
		} else {
			ws[t] = 1 / float64(len(ws))
		}
	}
	return ids, ws, mass
}

// sameAttach fails unless attachLive and the sweep agree bit for bit.
func sameAttach(t *testing.T, label string, a *attachScratch, st *spectralState, k int, q Vector, baseOnly bool) {
	t.Helper()
	m, mass := a.attachLive(st, k, q, baseOnly)
	ids, ws, wantMass := attachSweep(st, k, q, baseOnly)
	if !slices.Equal(a.nbrID[:m], ids) {
		t.Fatalf("%s: surrogates %v, sweep %v", label, a.nbrID[:m], ids)
	}
	for i, w := range ws {
		if math.Float64bits(a.nbrW[i]) != math.Float64bits(w) {
			t.Fatalf("%s: weight %d is %v, sweep %v", label, i, a.nbrW[i], w)
		}
	}
	if math.Float64bits(mass) != math.Float64bits(wantMass) {
		t.Fatalf("%s: mass %v, sweep %v", label, mass, wantMass)
	}
}

// TestSpectralAttachMatchesSweep: {f64, F32, mapped} on the three prune
// corpora (the duplicates one ties every distance in pairs), fresh and
// with delta rows and tombstones — among them every base neighbour of
// one query — for held-out vectors and stored points, k from 1 to past
// the live count, base-only (Insert) and all live rows (queries).
func TestSpectralAttachMatchesSweep(t *testing.T) {
	for _, c := range pruneCorpora() {
		for _, form := range []string{"f64", "f32", "mapped"} {
			t.Run(c.name+"/"+form, func(t *testing.T) {
				t.Parallel()
				e := c.engine(t, form)
				var a attachScratch
				check := func(stage string) {
					st := e.st
					queries := append(slices.Clone(c.pool[len(c.pool)-6:]), st.pointVec(3), st.pointVec(st.numPoints()-1))
					for qi, q := range queries {
						for _, k := range []int{1, e.sopts.AttachK, st.numPoints() + 3} {
							for _, baseOnly := range []bool{false, true} {
								sameAttach(t, fmt.Sprintf("%s q%d k=%d baseOnly=%v", stage, qi, k, baseOnly), &a, st, k, q, baseOnly)
							}
						}
					}
				}
				check("fresh")

				n := len(c.base)
				for _, p := range c.pool[:len(c.pool)-6] {
					if _, err := e.Insert(p); err != nil {
						t.Fatal(err)
					}
				}
				for _, id := range []int{0, 5, 64, n / 2, n - 1, n + 1, n + 7} {
					if err := e.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
				// Every base row near the first held-out query goes, so its
				// attach must reach past the tombstones.
				var a0 attachScratch
				m, _ := a0.attachLive(e.st, 2*e.sopts.AttachK, c.pool[len(c.pool)-6], true)
				for _, id := range a0.nbrID[:m] {
					if e.Alive(id) {
						if err := e.Delete(id); err != nil {
							t.Fatal(err)
						}
					}
				}
				check("delta")
			})
		}
	}
}
