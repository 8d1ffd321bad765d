package vec

import (
	"math"
	"math/rand"
	"testing"
)

// Distance- and dot-kernel benchmarks, f64 vs f32 storage. Each op
// streams the same logical matrix once; SetBytes and the stream-B/op
// metric make the traffic explicit (f32 moves half the bytes) and ns/row
// is the number the attach budget is written in. The shapes are 128 rows
// at the workloads' dimensions, which stay in cache — d = 8 (the mixture
// corpora), 128, and 512 (the unit-norm embedding corpus) — and the
// 4096 x 128 streaming matrix (4 MB as f64, 2 MB as f32), which does
// not. The sub-rows put the Go body ("go"), the dispatched one-row body
// ("one-row": AVX2 where the CPU has it) and the four-row batch pass
// ("four-row") side by side; -benchmem shows 0 allocs/op for all.

type benchShape struct {
	name      string
	rows, dim int
}

var benchShapes = []benchShape{
	{"d=8", 128, 8},
	{"d=128", 128, 128},
	{"d=512", 128, 512},
	{"stream/d=128", 4096, 128},
}

func benchData(s benchShape) (q []float64, pts []Vector, flat64 []float64, flat32 []float32) {
	rng := rand.New(rand.NewSource(42))
	q = randSlice(rng, s.dim)
	pts = make([]Vector, s.rows)
	flat64 = make([]float64, s.rows*s.dim)
	flat32 = make([]float32, s.rows*s.dim)
	for i := range pts {
		pts[i] = randSlice(rng, s.dim)
		copy(flat64[i*s.dim:], pts[i])
		Narrow32(flat32[i*s.dim:(i+1)*s.dim], pts[i])
	}
	return
}

// benchPass times fn, one pass over rows rows of rowBytes each.
func benchPass(b *testing.B, rows, rowBytes int, fn func()) {
	stream := int64(rows * rowBytes)
	b.SetBytes(stream)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
	b.ReportMetric(float64(stream), "stream-B/op")
}

func BenchmarkKernelSquaredEuclideanBatchF64(b *testing.B) {
	for _, s := range benchShapes {
		q, pts, _, _ := benchData(s)
		out := make([]float64, s.rows)
		b.Run(s.name+"/go", func(b *testing.B) {
			benchPass(b, s.rows, s.dim*8, func() {
				for r, p := range pts {
					out[r] = sqdistGo(q, p)
				}
			})
		})
		b.Run(s.name+"/one-row", func(b *testing.B) {
			benchPass(b, s.rows, s.dim*8, func() {
				for r, p := range pts {
					out[r] = SquaredEuclidean(q, p)
				}
			})
		})
		b.Run(s.name+"/four-row", func(b *testing.B) {
			benchPass(b, s.rows, s.dim*8, func() { SquaredEuclideanBatch(q, pts, out) })
		})
	}
}

func BenchmarkKernelSquaredEuclideanBatchF32(b *testing.B) {
	for _, s := range benchShapes {
		q, _, _, flat32 := benchData(s)
		out := make([]float64, s.rows)
		dim := s.dim
		b.Run(s.name+"/go", func(b *testing.B) {
			benchPass(b, s.rows, dim*4, func() {
				for r := range out {
					out[r] = sqdistGo(q, flat32[r*dim:(r+1)*dim])
				}
			})
		})
		b.Run(s.name+"/one-row", func(b *testing.B) {
			benchPass(b, s.rows, dim*4, func() {
				for r := range out {
					out[r] = SquaredEuclideanQ32(q, flat32[r*dim:(r+1)*dim])
				}
			})
		})
		b.Run(s.name+"/four-row", func(b *testing.B) {
			benchPass(b, s.rows, dim*4, func() { SquaredEuclideanBatch32(q, flat32, out) })
		})
	}
}

func BenchmarkKernelDotRowsF64(b *testing.B) {
	for _, s := range benchShapes {
		q, _, flat64, _ := benchData(s)
		out := make([]float64, s.rows)
		dim := s.dim
		b.Run(s.name+"/go", func(b *testing.B) {
			benchPass(b, s.rows, dim*8, func() {
				for r := range out {
					out[r] = dotGo(q, flat64[r*dim:(r+1)*dim])
				}
			})
		})
		b.Run(s.name+"/one-row", func(b *testing.B) {
			benchPass(b, s.rows, dim*8, func() {
				for r := range out {
					out[r] = Dot(q, flat64[r*dim:(r+1)*dim])
				}
			})
		})
		// Dot4, the Lanczos partials' kernel: four rows per pass, each
		// with Dot's bits. At d = 512 a row is one par block of the
		// spectral build's basis.
		row := func(r int) []float64 { return flat64[r*dim : (r+1)*dim] }
		b.Run(s.name+"/four-row", func(b *testing.B) {
			benchPass(b, s.rows, dim*8, func() {
				for r := 0; r+4 <= len(out); r += 4 {
					Dot4(q, row(r), row(r+1), row(r+2), row(r+3), (*[4]float64)(out[r:r+4]))
				}
			})
		})
	}
}

func BenchmarkKernelDotRowsF32(b *testing.B) {
	for _, s := range benchShapes {
		q, _, _, flat32 := benchData(s)
		out := make([]float64, s.rows)
		dim := s.dim
		b.Run(s.name+"/go", func(b *testing.B) {
			benchPass(b, s.rows, dim*4, func() {
				for r := range out {
					out[r] = dotGo(q, flat32[r*dim:(r+1)*dim])
				}
			})
		})
		b.Run(s.name+"/one-row", func(b *testing.B) {
			benchPass(b, s.rows, dim*4, func() {
				for r := range out {
					out[r] = Dot32(q, flat32[r*dim:(r+1)*dim])
				}
			})
		})
	}
}

// The gather kernels have no assembly body; 24 entries per row is the
// EMR engine's H-column shape.
const gatherRows = 4096

func BenchmarkKernelGatherF64(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	const nnz = gatherRows * 24
	val := randSlice(rng, nnz)
	idx := make([]int32, nnz)
	for i := range idx {
		idx[i] = int32(rng.Intn(2560))
	}
	z := randSlice(rng, 2560)
	benchPass(b, gatherRows, 24*(8+4), func() {
		var s float64
		for r := 0; r < gatherRows; r++ {
			s += DotGather(val[r*24:(r+1)*24], idx[r*24:(r+1)*24], z)
		}
		sinkF64 = s
	})
}

func BenchmarkKernelGatherF32(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	const nnz = gatherRows * 24
	val := Narrow32(nil, randSlice(rng, nnz))
	idx := make([]int32, nnz)
	for i := range idx {
		idx[i] = int32(rng.Intn(2560))
	}
	z := randSlice(rng, 2560)
	benchPass(b, gatherRows, 24*(4+4), func() {
		var s float64
		for r := 0; r < gatherRows; r++ {
			s += DotGather(val[r*24:(r+1)*24], idx[r*24:(r+1)*24], z)
		}
		sinkF64 = s
	})
}

// The elementwise and scatter kernels run 128 rows at the two lengths
// the engines run them at: rank 64 (the spectral projection's axpy of
// one embedding row) and p = 1024 (the emr_vec combine's axpy of one
// Gram-inverse row). Axpy has an AVX2 body beside its Go one; Sum and
// ScatterAxpy have only the Go body. The float64 Axpy also runs at
// b = 512, one par block of the spectral build's basis; its "four-row"
// sub-row is Axpy4, the reorthogonalization's update (and, at r = 64,
// the Ritz assembly's).
var elemShapes = []benchShape{{"r=64", 128, 64}, {"p=1024", 128, 1024}}

// elemData draws the rows of s as float64 and as float32, a destination
// of one row's length, and per-row scatter indices into it.
func elemData(s benchShape) (flat64 []float64, flat32 []float32, y []float64, idx []int) {
	rng := rand.New(rand.NewSource(44))
	flat64 = randSlice(rng, s.rows*s.dim)
	flat32 = Narrow32(nil, flat64)
	y = randSlice(rng, s.dim)
	idx = make([]int, s.rows*s.dim)
	for i := range idx {
		idx[i] = rng.Intn(s.dim)
	}
	return
}

// benchAxpy runs the /go and /one-row sub-rows of one Axpy storage
// width over flat, rows of s.dim elements of elemBytes each.
func benchAxpy[P Float](b *testing.B, s benchShape, y []float64, flat []P, elemBytes int) {
	row := func(r int) []P { return flat[r*s.dim : (r+1)*s.dim] }
	b.Run(s.name+"/go", func(b *testing.B) {
		benchPass(b, s.rows, s.dim*elemBytes, func() {
			for r := 0; r < s.rows; r++ {
				axpyGo(y, 1e-3, row(r))
			}
		})
	})
	b.Run(s.name+"/one-row", func(b *testing.B) {
		benchPass(b, s.rows, s.dim*elemBytes, func() {
			for r := 0; r < s.rows; r++ {
				Axpy(y, 1e-3, row(r))
			}
		})
	})
}

func BenchmarkKernelAxpyF64(b *testing.B) {
	for _, s := range append(elemShapes, benchShape{"b=512", 128, 512}) {
		flat64, _, y, _ := elemData(s)
		benchAxpy(b, s, y, flat64, 8)
		row := func(r int) []float64 { return flat64[r*s.dim : (r+1)*s.dim] }
		b.Run(s.name+"/four-row", func(b *testing.B) {
			benchPass(b, s.rows, s.dim*8, func() {
				for r := 0; r+4 <= s.rows; r += 4 {
					Axpy4(y, [4]float64{1e-3, -1e-3, 2e-3, -2e-3}, row(r), row(r+1), row(r+2), row(r+3))
				}
			})
		})
	}
}

func BenchmarkKernelAxpyF32(b *testing.B) {
	for _, s := range elemShapes {
		_, flat32, y, _ := elemData(s)
		benchAxpy(b, s, y, flat32, 4)
	}
}

// BenchmarkKernelRot rotates 64 disjoint row pairs per op at m = 144,
// the order 2·64 + 16 of a rank-64 spectral build's Lanczos
// tridiagonal (the row rotation of dense.EigTridiag's QL), and at
// p = 1024, the Axpy
// rows' long length. A rotation is orthogonal, so repeating it keeps
// the rows bounded.
func BenchmarkKernelRot(b *testing.B) {
	c, sn := math.Cos(0.3), math.Sin(0.3)
	for _, s := range []benchShape{{"m=144", 128, 144}, {"p=1024", 128, 1024}} {
		flat64, _, _, _ := elemData(s)
		row := func(r int) []float64 { return flat64[r*s.dim : (r+1)*s.dim] }
		b.Run(s.name+"/go", func(b *testing.B) {
			benchPass(b, s.rows, s.dim*8, func() {
				for r := 0; r < s.rows; r += 2 {
					rotGo(row(r), row(r+1), c, sn)
				}
			})
		})
		b.Run(s.name+"/one-row", func(b *testing.B) {
			benchPass(b, s.rows, s.dim*8, func() {
				for r := 0; r < s.rows; r += 2 {
					Rot(row(r), row(r+1), c, sn)
				}
			})
		})
	}
}

func BenchmarkKernelSumF64(b *testing.B) {
	for _, s := range elemShapes {
		flat64, _, _, _ := elemData(s)
		b.Run(s.name+"/go", func(b *testing.B) {
			benchPass(b, s.rows, s.dim*8, func() {
				var sum float64
				for r := 0; r < s.rows; r++ {
					sum += Sum(flat64[r*s.dim : (r+1)*s.dim])
				}
				sinkF64 = sum
			})
		})
	}
}

func BenchmarkKernelSumF32(b *testing.B) {
	for _, s := range elemShapes {
		_, flat32, _, _ := elemData(s)
		b.Run(s.name+"/go", func(b *testing.B) {
			benchPass(b, s.rows, s.dim*4, func() {
				var sum float64
				for r := 0; r < s.rows; r++ {
					sum += Sum(flat32[r*s.dim : (r+1)*s.dim])
				}
				sinkF64 = sum
			})
		})
	}
}

func BenchmarkKernelScatterAxpyF64(b *testing.B) {
	for _, s := range elemShapes {
		flat64, _, y, idx := elemData(s)
		b.Run(s.name+"/go", func(b *testing.B) {
			benchPass(b, s.rows, s.dim*(8+8), func() {
				for r := 0; r < s.rows; r++ {
					ScatterAxpy(y, idx[r*s.dim:(r+1)*s.dim], flat64[r*s.dim:(r+1)*s.dim], 1e-3)
				}
			})
		})
	}
}

func BenchmarkKernelScatterAxpyF32(b *testing.B) {
	for _, s := range elemShapes {
		_, flat32, y, idx := elemData(s)
		b.Run(s.name+"/go", func(b *testing.B) {
			benchPass(b, s.rows, s.dim*(4+8), func() {
				for r := 0; r < s.rows; r++ {
					ScatterAxpy(y, idx[r*s.dim:(r+1)*s.dim], flat32[r*s.dim:(r+1)*s.dim], 1e-3)
				}
			})
		})
	}
}

var sinkF64 float64
