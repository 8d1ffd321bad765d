package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mogul/internal/dataset"
	"mogul/internal/knn"
	"mogul/internal/vec"
)

// findSurrogates picks its nearest clusters by linear argmin, sorts only
// what is left when those picks come up short, and selects the nearest
// candidates through knn's (key, id) heap. The full sorts it replaced
// are kept below as the oracle: every selection must yield the same
// probes, the same weight bits and the same affinity bits.

// scoredNbr is one surrogate candidate with its distance to the query.
type scoredNbr struct {
	id int
	d  float64
}

// findSurrogatesFullSort is findSurrogates before the partial selection:
// every cluster mean is measured and all of them are sorted, and so are
// all the candidates. It also reports how many clusters it consumed, so
// a case can prove it reached past the argmin picks.
func findSurrogatesFullSort(ix *Index, s *Scratch, ov *Overlay, q vec.Vector, numNbrs int) (int, error) {
	if numNbrs <= 0 {
		numNbrs = ix.graph.K
	}
	ix.ensureOOS()

	s.ordBuf = s.ordBuf[:0]
	for c, m := range ix.oosMeans {
		if m == nil {
			continue
		}
		s.ordBuf = append(s.ordBuf, clusterDist{c: c, d: vec.SquaredEuclidean(q, m)})
	}
	if len(s.ordBuf) == 0 {
		return 0, fmt.Errorf("core: no non-empty clusters")
	}
	slices.SortFunc(s.ordBuf, func(a, b clusterDist) int {
		switch {
		case a.d < b.d:
			return -1
		case a.d > b.d:
			return 1
		default:
			return a.c - b.c
		}
	})
	var cand []scoredNbr
	consumed := 0
	for _, cd := range s.ordBuf {
		consumed++
		for _, id := range ix.oosMembers[cd.c] {
			if ov.DeadBase > 0 && ov.Dead[id] {
				continue
			}
			cand = append(cand, scoredNbr{id: id})
		}
		if len(cand) >= numNbrs {
			break
		}
	}
	if len(cand) == 0 {
		return consumed, fmt.Errorf("core: no live candidates for surrogate selection")
	}
	for i := range cand {
		cand[i].d = math.Sqrt(ix.graph.Points.SqDist(q, cand[i].id))
	}
	slices.SortFunc(cand, func(a, b scoredNbr) int {
		switch {
		case a.d < b.d:
			return -1
		case a.d > b.d:
			return 1
		default:
			return a.id - b.id
		}
	})
	nbrs := cand
	if len(nbrs) > numNbrs {
		nbrs = nbrs[:numNbrs]
	}

	sigma := ix.graph.Sigma
	s.probeIDs = s.probeIDs[:0]
	s.probeWts = s.probeWts[:0]
	var total float64
	for _, nb := range nbrs {
		w := math.Exp(-nb.d * nb.d / (2 * sigma * sigma))
		s.probeIDs = append(s.probeIDs, nb.id)
		s.probeWts = append(s.probeWts, w)
		total += w
	}
	s.oosRawMass = total
	s.oosRawCount = len(s.probeWts)
	if total == 0 {
		for i := range s.probeWts {
			s.probeWts[i] = 1
		}
		total = float64(len(s.probeWts))
	}
	for i := range s.probeWts {
		s.probeWts[i] /= total
	}
	return consumed, nil
}

// sameSurrogates runs the selection and the oracle on fresh scratches
// and fails unless they agree bit for bit. It returns the number of
// clusters the oracle consumed.
func sameSurrogates(t testing.TB, label string, ix *Index, ov *Overlay, q vec.Vector, numNbrs int) int {
	t.Helper()
	var got, want Scratch
	gotErr := ix.findSurrogates(&got, ov, q, numNbrs)
	consumed, wantErr := findSurrogatesFullSort(ix, &want, ov, q, numNbrs)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: error %v, oracle %v", label, gotErr, wantErr)
	}
	if wantErr != nil {
		return consumed
	}
	if !slices.Equal(got.probeIDs, want.probeIDs) {
		t.Fatalf("%s: probes %v, oracle %v", label, got.probeIDs, want.probeIDs)
	}
	if len(got.probeWts) != len(want.probeWts) {
		t.Fatalf("%s: %d weights, oracle %d", label, len(got.probeWts), len(want.probeWts))
	}
	for i := range want.probeWts {
		if math.Float64bits(got.probeWts[i]) != math.Float64bits(want.probeWts[i]) {
			t.Fatalf("%s: weight %d is %x, oracle %x", label, i, math.Float64bits(got.probeWts[i]), math.Float64bits(want.probeWts[i]))
		}
	}
	if g, w := got.OOSAffinity(), want.OOSAffinity(); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("%s: affinity %x, oracle %x", label, math.Float64bits(g), math.Float64bits(w))
	}
	return consumed
}

// synthConfig shapes a synthetic quantizer: n points spread at random
// over the given number of clusters (some may stay empty), means every
// dupEvery-th one copied so ties fall to the cluster id, and grid points
// with small integer coordinates, where distinct means tie too.
type synthConfig struct {
	n, clusters, dim, dupEvery int
	grid                       bool
	seed                       int64
}

// synthOOS is an index holding only what findSurrogates reads — stored
// points, the graph's K and bandwidth, and the quantizer tables, made up
// rather than derived from a clustering so that cluster counts, empty
// clusters and duplicated means are the test's to dictate.
func synthOOS(cfg synthConfig) (*Index, *rand.Rand) {
	rng := rand.New(rand.NewSource(cfg.seed))
	pts := make([]vec.Vector, cfg.n)
	for i := range pts {
		pts[i] = synthPoint(rng, cfg.dim, cfg.grid)
	}
	members := make([][]int, cfg.clusters)
	for id := range pts {
		c := rng.Intn(cfg.clusters)
		members[c] = append(members[c], id)
	}
	means := make([]vec.Vector, cfg.clusters)
	for c, ids := range members {
		if len(ids) == 0 {
			continue
		}
		sub := make([]vec.Vector, len(ids))
		for i, id := range ids {
			sub[i] = pts[id]
		}
		means[c] = make(vec.Vector, len(sub[0]))
		for _, p := range sub {
			means[c].Add(p)
		}
		means[c].Scale(1 / float64(len(sub)))
	}
	if cfg.dupEvery > 0 {
		for c := cfg.dupEvery; c < len(means); c++ {
			if src := means[c%cfg.dupEvery]; src != nil && means[c] != nil {
				means[c] = src
			}
		}
	}
	ix := &Index{graph: &knn.Graph{K: 5, Sigma: 1, Points: vec.AliasRows(pts, len(pts[0]))}, oosMeans: means, oosMembers: members}
	return ix, rng
}

func synthPoint(rng *rand.Rand, dim int, grid bool) vec.Vector {
	p := make(vec.Vector, dim)
	for j := range p {
		if grid {
			p[j] = float64(rng.Intn(5) - 2)
		} else {
			p[j] = 2 * rng.NormFloat64()
		}
	}
	return p
}

// synthQuery is a query near a random stored point, or exactly at a
// cluster mean (the distance ties a duplicated mean produces).
func synthQuery(ix *Index, rng *rand.Rand, grid bool) vec.Vector {
	if rng.Intn(4) == 0 {
		for {
			if m := ix.oosMeans[rng.Intn(len(ix.oosMeans))]; m != nil {
				return append(vec.Vector(nil), m...)
			}
		}
	}
	q := append(vec.Vector(nil), ix.graph.Points.Row(rng.Intn(ix.graph.Points.Len()), nil)...)
	if grid {
		return q
	}
	for j := range q {
		q[j] += 0.3 * rng.NormFloat64()
	}
	return q
}

// tombstones kills every member of the killNearest clusters nearest q
// and each other point with probability frac.
func tombstones(ix *Index, rng *rand.Rand, q vec.Vector, killNearest int, frac float64) *Overlay {
	n := ix.graph.Points.Len()
	ov := &Overlay{Dead: make([]bool, n)}
	var ord []clusterDist
	for c, m := range ix.oosMeans {
		if m != nil {
			ord = append(ord, clusterDist{c: c, d: vec.SquaredEuclidean(q, m)})
		}
	}
	slices.SortFunc(ord, cmpClusterDist)
	for _, cd := range ord[:min(killNearest, len(ord))] {
		for _, id := range ix.oosMembers[cd.c] {
			ov.Dead[id] = true
		}
	}
	for id := range ov.Dead {
		if rng.Float64() < frac {
			ov.Dead[id] = true
		}
	}
	for _, dead := range ov.Dead {
		if dead {
			ov.DeadBase++
		}
	}
	ov.Live = n - ov.DeadBase
	return ov
}

func TestSurrogateSelectionMatchesFullSort(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name        string
		cfg         synthConfig
		killNearest int
		frac        float64
		numNbrs     []int
		// wantPast: some query must consume more clusters than the argmin
		// picks, so the remainder sort ran; wantAll: every non-empty
		// cluster was consumed (numNbrs beyond the live population).
		wantPast, wantAll bool
	}{
		{name: "600-clusters", cfg: synthConfig{n: 6000, clusters: 600, dim: 8, seed: 1}, numNbrs: []int{0, 1, 10, 30}},
		{name: "duplicated-means", cfg: synthConfig{n: 3000, clusters: 520, dim: 8, dupEvery: 7, seed: 2}, numNbrs: []int{0, 1, 40}},
		{name: "grid-ties", cfg: synthConfig{n: 3000, clusters: 500, dim: 3, grid: true, seed: 3}, numNbrs: []int{0, 1, 25}},
		{name: "nearest-tombstoned", cfg: synthConfig{n: 6000, clusters: 600, dim: 8, seed: 4}, killNearest: 12, frac: 0.3, numNbrs: []int{0, 10}, wantPast: true},
		{name: "beyond-live", cfg: synthConfig{n: 2000, clusters: 500, dim: 8, dupEvery: 11, seed: 5}, frac: 0.5, numNbrs: []int{2007}, wantPast: true, wantAll: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ix, rng := synthOOS(tc.cfg)
			nonEmpty := 0
			for _, m := range ix.oosMeans {
				if m != nil {
					nonEmpty++
				}
			}
			maxConsumed := 0
			for qi := 0; qi < 40; qi++ {
				q := synthQuery(ix, rng, tc.cfg.grid)
				ov := tombstones(ix, rng, q, tc.killNearest, tc.frac)
				for _, nn := range tc.numNbrs {
					c := sameSurrogates(t, fmt.Sprintf("q%d/numNbrs=%d", qi, nn), ix, ov, q, nn)
					maxConsumed = max(maxConsumed, c)
					if tc.wantAll && c != nonEmpty {
						t.Fatalf("q%d: oracle consumed %d of %d clusters", qi, c, nonEmpty)
					}
				}
			}
			if tc.wantPast && maxConsumed <= argminPicks {
				t.Fatalf("no query consumed more than %d clusters (max %d): the remainder sort never ran", argminPicks, maxConsumed)
			}
		})
	}
}

// TestSurrogateSelectionBuiltIndex runs the same comparison on a real
// build, whose quantizer ensureOOS derives from the Louvain clustering,
// with a delta overlay whose tombstones sit in the queries' own clusters.
func TestSurrogateSelectionBuiltIndex(t *testing.T) {
	t.Parallel()
	ds := dataset.Mixture(dataset.MixtureConfig{
		N: 1540, Classes: 150, Dim: 8, WithinStd: 0.25, Separation: 3.0, Seed: 1,
	})
	base, pool := ds.Points[:1500], ds.Points[1500:]
	cfg := knn.GraphConfig{K: 5}
	g, err := knn.BuildGraph(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewIndex(g, Options{Graph: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	d := newDyn(fresh)
	for _, p := range pool[:20] {
		if _, err := d.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < 1500; id += 3 {
		if err := d.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	ov := d.overlay()
	for qi, q := range pool[20:] {
		for _, nn := range []int{0, 1, 30, ov.Live + 3} {
			sameSurrogates(t, fmt.Sprintf("q%d/numNbrs=%d", qi, nn), d.Index, ov, q, nn)
		}
	}
}

// FuzzSurrogateOrder drives the selection against the full-sort oracle
// over fuzzed quantizer shapes: cluster count, duplicated means, grid
// ties, tombstones in the nearest clusters and numNbrs.
func FuzzSurrogateOrder(f *testing.F) {
	f.Add(int64(1), uint16(600), uint8(0), false, uint8(0), uint8(0), uint16(0))
	f.Add(int64(2), uint16(520), uint8(7), false, uint8(20), uint8(3), uint16(10))
	f.Add(int64(3), uint16(500), uint8(0), true, uint8(0), uint8(0), uint16(1))
	f.Add(int64(4), uint16(600), uint8(0), false, uint8(30), uint8(12), uint16(10))
	f.Add(int64(5), uint16(40), uint8(3), true, uint8(60), uint8(5), uint16(5000))
	f.Fuzz(func(t *testing.T, seed int64, clusters uint16, dupEvery uint8, grid bool, deadPct uint8, killNearest uint8, numNbrs uint16) {
		cfg := synthConfig{
			clusters: 1 + int(clusters)%700,
			dim:      3,
			dupEvery: int(dupEvery) % 16,
			grid:     grid,
			seed:     seed,
		}
		cfg.n = 1 + 3*cfg.clusters
		ix, rng := synthOOS(cfg)
		frac := float64(deadPct%101) / 100
		for qi := 0; qi < 4; qi++ {
			q := synthQuery(ix, rng, grid)
			ov := tombstones(ix, rng, q, int(killNearest)%32, frac)
			sameSurrogates(t, fmt.Sprintf("q%d", qi), ix, ov, q, int(numNbrs)%(cfg.n+8))
		}
	})
}
