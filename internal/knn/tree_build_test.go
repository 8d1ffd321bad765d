package knn

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"mogul/internal/dataset"
	"mogul/internal/vec"
)

// serialTree is NewTree as it built before any node went parallel and
// before its extents went through vec.MinMax, frozen as the oracle of
// the build: every node built in order on one goroutine, each leaf
// numbered as the one before it returns, and every extent folded by
// serialExtent.
func serialTree(points *vec.Rows) *Tree {
	n, d := points.Len(), points.Width()
	t := &Tree{ids: make([]int, n), leafSize: leafRows(d)}
	for i := range t.ids {
		t.ids[i] = i
	}
	depth := 0
	if d > 0 {
		for c := n; c > t.leafSize; c = (c + 1) / 2 {
			depth++
		}
	}
	t.dim = make([]int32, 1<<depth-1)
	t.split = make([]float64, len(t.dim))
	t.leafBase = make([]int32, (len(t.dim)+1)/2)
	t.box = make([]float64, leafCount(n, depth, t.leafSize)*2*d)
	t.slack = 1 + treeRelSlack + float64(d+2*depth+2)*0x1p-52
	serialBuild(t, points, make([]float64, n), make([]float64, 3*d), 0, 0, n, 0)
	return t
}

func serialBuild(t *Tree, points *vec.Rows, keys, work []float64, node, lo, hi, leaf int) int {
	ids := t.ids[lo:hi]
	d := len(work) / 3
	span, buf := work[:2*d], work[2*d:]
	if last := len(t.dim) / 2; node >= last && node < len(t.dim) {
		t.leafBase[node-last] = int32(leaf)
	}
	if t.leaf(node, lo, hi) {
		if d > 0 && len(ids) > 0 {
			serialExtent(points, ids, t.box[2*d*leaf:2*d*(leaf+1)], buf)
		}
		return leaf + 1
	}
	serialExtent(points, ids, span, buf)
	s, widest := 0, span[d]-span[0]
	for j := 1; j < d; j++ {
		if w := span[d+j] - span[j]; w > widest {
			s, widest = j, w
		}
	}
	k := keys[lo:hi]
	for j, id := range ids {
		k[j] = points.Row(id, buf)[s]
	}
	m := len(ids) / 2
	SelectRank(k, ids, m)
	t.dim[node], t.split[node] = int32(s), k[m]
	leaf = serialBuild(t, points, keys, work, 2*node+1, lo, lo+m, leaf)
	return serialBuild(t, points, keys, work, 2*node+2, lo+m, hi, leaf)
}

// serialExtent is extent with Go's min and max builtins, row by row:
// the rule the extent kernel must reproduce to the bit.
func serialExtent(points *vec.Rows, ids []int, span, buf []float64) {
	d := len(span) / 2
	mins, maxs := span[:d], span[d:]
	first := points.Row(ids[0], buf)
	copy(mins, first)
	copy(maxs, first)
	for _, id := range ids[1:] {
		for j, x := range points.Row(id, buf)[:d] {
			mins[j] = min(mins[j], x)
			maxs[j] = max(maxs[j], x)
		}
	}
}

// signedLattice is n points of dimension d on a small integer lattice
// with ±0 coordinates and, when nan is set, a NaN in one row: duplicates,
// split ties and extents whose sign of zero only an exact fold keeps.
func signedLattice(n, d int, nan bool) []vec.Vector {
	pts := make([]vec.Vector, n)
	for i := range pts {
		p := make(vec.Vector, d)
		for j := range p {
			switch v := (i*7 + j*13 + i/97) % 11; v {
			case 0:
				p[j] = math.Copysign(0, -1)
			case 1:
				p[j] = 0
			default:
				p[j] = float64(v%5) - 2
			}
		}
		pts[i] = p
	}
	if nan {
		pts[n/3][d-1] = math.NaN()
	}
	return pts
}

// zeroLattice is n points of dimension d whose coordinates are ±0, 1
// or 2, with a NaN of its own payload and sign in every 331st row, on a
// dimension that cycles: leaf boxes whose minima are zeros reached in
// either sign order, and NaNs met first, last and in the middle of a
// leaf, on the kernel's four-wide body and its scalar tail alike.
func zeroLattice(n, d int) []vec.Vector {
	pts := make([]vec.Vector, n)
	for i := range pts {
		p := make(vec.Vector, d)
		for j := range p {
			p[j] = []float64{math.Copysign(0, -1), 0, 1, 2}[uint32(i*d+j)*2654435761>>30]
		}
		if i%331 == 0 {
			p[i/331%d] = math.Float64frombits(0x7ff8000000000000 | uint64(i) | uint64(i%2)<<63)
		}
		pts[i] = p
	}
	return pts
}

// sameTree reports the first field in which two trees differ, floats by
// their bits (NaN splits and boxes included).
func sameTree(got, want *Tree) error {
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	switch {
	case !slices.Equal(got.ids, want.ids):
		return fmt.Errorf("ids differ")
	case !slices.Equal(got.dim, want.dim):
		return fmt.Errorf("split dimensions differ")
	case !slices.Equal(bits(got.split), bits(want.split)):
		return fmt.Errorf("split values differ")
	case !slices.Equal(bits(got.box), bits(want.box)):
		return fmt.Errorf("leaf boxes differ")
	case !slices.Equal(got.leafBase, want.leafBase):
		return fmt.Errorf("leaf numbers differ")
	case got.leafSize != want.leafSize || math.Float64bits(got.slack) != math.Float64bits(want.slack):
		return fmt.Errorf("leaf size or slack differs")
	}
	return nil
}

// withOutlier is pts with row's second coordinate moved to 1000, which
// makes that dimension the widest only while row is counted: a blocked
// extent that dropped the block holding row would split elsewhere.
func withOutlier(pts []vec.Vector, row int) []vec.Vector {
	out := slices.Clone(pts)
	out[row] = slices.Clone(pts[row])
	out[row][1] = 1000
	return out
}

// TestNewTreeMatchesSerial: the tree is the frozen serial build's,
// every field to the bit, at GOMAXPROCS 1, 2 and 8, on shapes whose top
// levels are built in parallel: the d = 8 mixture, with a lone outlier
// in the first or the last row block, INRIASim at d = 128 as float32
// rows, the d = 512 embedding stand-in at n = 9000 and at graph_vec_d512's
// n = 6000 (under parallelRows, so only its lower children go
// parallel), and lattices with ±0 (two with NaN coordinates, where the
// blocked extent must stay NaN and the leaf boxes keep the builtins'
// NaN bits).
func TestNewTreeMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	mix := mixture8(20_000)
	inria := vec.AliasRows(dataset.INRIASim(17_000, 1).Points, 128)
	shapes := []struct {
		name string
		rows vec.Rows
	}{
		{"mixture-d8", vec.AliasRows(mix, 8)},
		{"outlier-first-d8", vec.AliasRows(withOutlier(mix, 0), 8)},
		{"outlier-last-d8", vec.AliasRows(withOutlier(mix, len(mix)-1), 8)},
		{"inria-d128-f32", inria.Narrow()},
		{"unit-d512", vec.AliasRows(unitMixture(9_000, 512), 512)},
		{"unit-d512-n6000", vec.AliasRows(unitMixture(6_000, 512), 512)},
		{"lattice-d3", vec.AliasRows(signedLattice(33_000, 3, false), 3)},
		{"lattice-nan-d5", vec.AliasRows(signedLattice(17_000, 5, true), 5)},
		{"zero-lattice-nan-d6", vec.AliasRows(zeroLattice(17_000, 6), 6)},
	}
	for _, sh := range shapes {
		want := serialTree(&sh.rows)
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			if err := sameTree(NewTree(&sh.rows), want); err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: %v", sh.name, procs, err)
			}
		}
	}
}

// BenchmarkNewTree times the tree build alone on the shapes the graph
// builds run it at: the d = 8 mixture of mixed_rw and the σ estimate of
// dist_fanout (n = 20000), one dist_fanout shard (n = 5000, serial),
// INRIASim at d = 128 (n = 14000), the d = 512 stand-in at n = 20000 and
// at graph_vec_d512's n = 6000. Run at -cpu 1,2 it shows what the
// parallel upper levels buy.
func BenchmarkNewTree(b *testing.B) {
	for _, c := range []struct {
		name string
		pts  func() []vec.Vector
	}{
		{"d8-n20000", func() []vec.Vector { return mixture8(20_000) }},
		{"d8-n5000", func() []vec.Vector { return mixture8(5_000) }},
		{"d128-n14000", func() []vec.Vector { return dataset.INRIASim(14_000, 1).Points }},
		{"d512-n20000", func() []vec.Vector { return unitMixture(20_000, 512) }},
		{"d512-n6000", func() []vec.Vector { return unitMixture(6_000, 512) }},
	} {
		pts := c.pts()
		rows := vec.AliasRows(pts, len(pts[0]))
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var tree *Tree
			for i := 0; i < b.N; i++ {
				tree = NewTree(&rows)
			}
			b.ReportMetric(float64(len(tree.box)/(2*rows.Width())), "leaves")
		})
	}
}
