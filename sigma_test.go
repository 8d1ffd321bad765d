package mogul

import (
	"fmt"
	"math"
	"testing"

	"mogul/internal/fanout"
	"mogul/internal/topk"
	"mogul/internal/vec"
)

// estimateSigmaScan is EstimateSigma as it found each sample's k-NN
// before the tree did, frozen as its oracle: a scan over all n points
// per sample into a top-k collector on negated squared distances.
func estimateSigmaScan(points []Vector, k int) float64 {
	const maxSample = 512
	n := len(points)
	m := min(n, maxSample)
	dists := make([]float64, m*k)
	counts := make([]int, m)
	fanout.ForEach(m, 0, func() func(int) {
		coll := topk.New(k)
		return func(si int) {
			i := si * n / m
			coll.Reset(k)
			for j, p := range points {
				if j != i {
					coll.Offer(j, -vec.SquaredEuclidean(points[i], p))
				}
			}
			drained := coll.Drain()
			for t, it := range drained {
				dists[si*k+t] = math.Sqrt(-it.Score)
			}
			counts[si] = len(drained)
		}
	})
	filled := dists[:0]
	for si, c := range counts {
		filled = append(filled, dists[si*k:si*k+c]...)
	}
	sigma := vec.Stddev(filled)
	if sigma <= 0 {
		sigma = 1
	}
	return sigma
}

// sigmaLattice decodes n points of dimension d from data, read
// cyclically: small lattice coordinates (exact distance ties) and ±0,
// and rows that repeat an earlier row, so a sample can have more
// duplicates than its k+1 nearest hold.
func sigmaLattice(data []byte, n, d int) []Vector {
	pos := 0
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[pos%len(data)]
		pos++
		return int(b)
	}
	pts := make([]Vector, n)
	for i := range pts {
		if c := next(); i > 0 && c%3 == 0 {
			pts[i] = pts[(c/3)%i]
			continue
		}
		p := make(Vector, d)
		for j := range p {
			switch c := next(); c % 8 {
			case 0:
				p[j] = math.Copysign(0, -1)
			default:
				p[j] = float64(c%8) - 4 + float64(c/8%3)*0.5
			}
		}
		pts[i] = p
	}
	return pts
}

// checkSigma holds EstimateSigma to the frozen scan, to the bit.
func checkSigma(t *testing.T, name string, pts []Vector, k int) {
	t.Helper()
	got, want := EstimateSigma(pts, k), estimateSigmaScan(pts, k)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s k=%d: σ %v (%#x), the scan's %v (%#x)", name, k, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestEstimateSigmaMatchesScan: the σ of the tree is the scan's on the
// corpora the sharded builds run (dist_fanout's d = 8 mixture, INRIASim
// at d = 128), past and below the 512-point sample, at a lattice whose
// points repeat more than k+1 times, and with fewer than k other points.
func TestEstimateSigmaMatchesScan(t *testing.T) {
	mix := NewMixture(MixtureConfig{N: 20_000, Classes: 2000, Dim: 8, WithinStd: 0.25, Separation: 3.0, Seed: 1}).Points
	checkSigma(t, "mixture-d8-n20000", mix, 5)
	checkSigma(t, "inria-d128-n3000", NewINRIASim(3000, 1).Points, 5)
	checkSigma(t, "mixture-d8-n300", mix[:300], 10)
	checkSigma(t, "lattice-duplicates", sigmaLattice([]byte{0, 3, 9, 17, 6, 30, 12, 1}, 900, 3), 5)
	for n := 1; n <= 4; n++ {
		checkSigma(t, fmt.Sprintf("tiny-n%d", n), mix[:n], 5)
	}
}

// FuzzEstimateSigmaMatchesScan holds the tree's σ to the scan's on
// lattice points with ties and duplicates, n from 2 to past the
// 512-point sample, d from 1 to 160 (every leaf size and both sides of
// the box kernel's four lanes) and k from 1 to 12.
func FuzzEstimateSigmaMatchesScan(f *testing.F) {
	f.Add(uint16(40), uint8(2), uint8(5), []byte{0, 3, 9, 17, 6, 30})
	f.Add(uint16(600), uint8(9), uint8(3), []byte{3, 3, 3, 1, 2})
	f.Add(uint16(2), uint8(160), uint8(12), []byte{7, 8, 255})
	f.Fuzz(func(t *testing.T, size uint16, dim, kSel uint8, data []byte) {
		n := 2 + int(size)%700
		d := 1 + int(dim)%160
		k := 1 + int(kSel)%12
		checkSigma(t, fmt.Sprintf("n=%d d=%d", n, d), sigmaLattice(data, n, d), k)
	})
}

// BenchmarkEstimateSigma times the bandwidth estimate of a sharded build
// on dist_fanout's corpus (the d = 8 mixture, n = 20000) and on INRIASim
// (n = 14000, d = 128): the tree, and the scan it replaced.
func BenchmarkEstimateSigma(b *testing.B) {
	for _, c := range []struct {
		name string
		pts  []Vector
	}{
		{"dist_fanout", NewMixture(MixtureConfig{N: 20_000, Classes: 2000, Dim: 8, WithinStd: 0.25, Separation: 3.0, Seed: 1}).Points},
		{"inria-n14000", NewINRIASim(14_000, 1).Points},
	} {
		for _, arm := range []struct {
			name     string
			estimate func([]Vector, int) float64
		}{{"tree", EstimateSigma}, {"scan", estimateSigmaScan}} {
			b.Run(c.name+"/"+arm.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					arm.estimate(c.pts, 5)
				}
			})
		}
	}
}
