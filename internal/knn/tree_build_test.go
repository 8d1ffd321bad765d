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

// serialTree is NewTree as it built before nodes of parallelRows rows
// went parallel, frozen as the oracle of the parallel build: every node
// built in order on one goroutine, each leaf numbered as the one before
// it returns.
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
			extent(points, ids, t.box[2*d*leaf:2*d*(leaf+1)], buf)
		}
		return leaf + 1
	}
	extent(points, ids, span, buf)
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

// TestNewTreeMatchesSerial: the tree is the serial build's, every field
// to the bit, at GOMAXPROCS 1, 2 and 8, on shapes whose root and top
// levels are built in parallel: the d = 8 mixture, with a lone outlier
// in the first or the last row block, INRIASim at d = 128 as float32
// rows, the d = 512 embedding stand-in, and lattices with ±0 (one with
// a NaN coordinate, where the blocked extent must stay NaN).
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
		{"lattice-d3", vec.AliasRows(signedLattice(33_000, 3, false), 3)},
		{"lattice-nan-d5", vec.AliasRows(signedLattice(17_000, 5, true), 5)},
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
// dist_fanout (n = 20000), INRIASim at d = 128 (n = 14000) and the
// d = 512 stand-in (n = 20000). Run at -cpu 1,2 it shows what the
// parallel top levels buy.
func BenchmarkNewTree(b *testing.B) {
	for _, c := range []struct {
		name string
		pts  func() []vec.Vector
	}{
		{"d8-n20000", func() []vec.Vector { return mixture8(20_000) }},
		{"d128-n14000", func() []vec.Vector { return dataset.INRIASim(14_000, 1).Points }},
		{"d512-n20000", func() []vec.Vector { return unitMixture(20_000, 512) }},
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
