package vec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The dispatched kernel bodies (AVX2 assembly on amd64 CPUs that have
// it) must give the Go bodies' bits: the Go loops are the oracle. Off
// amd64, or without AVX2, the dispatched body IS the Go body and these
// tests compare Go with Go.

func logDispatch(t testing.TB) {
	t.Helper()
	if !useAVX2 {
		t.Log("no AVX2 body on this machine: compared the Go bodies with themselves")
	}
}

// sameBits is bit equality, except that any NaN matches any NaN: Go does
// not specify which operand's payload an arithmetic op keeps, and the
// compiler may swap the operands of a commutative add or multiply, so a
// NaN's payload is not part of the contract — that it is NaN is.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// valueClass draws one kernel input: ordinary values over six decades,
// subnormals, values near the overflow and underflow edges (1e±300,
// whose squares leave the range), and the non-finite values.
func valueClass(rng *rand.Rand, class int) float64 {
	sign := float64(1 - 2*rng.Intn(2))
	switch class {
	case 0:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
	case 1:
		return sign * math.Float64frombits(rng.Uint64()&(1<<52-1)) // subnormal
	case 2:
		return sign * 1e300 * (1 + rng.Float64())
	case 3:
		return sign * 1e-300 * (1 + rng.Float64())
	default:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}[rng.Intn(5)]
	}
}

// mixedSlice fills n values: mostly class 0, with each of the extreme
// classes mixed in at its own rate, or a whole slice of one class.
func mixedSlice(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	pure := rng.Intn(8) // 0..4: the whole slice is one class; else mixed
	for i := range out {
		class := pure
		if pure > 4 {
			class = 0
			if rng.Intn(6) == 0 {
				class = 1 + rng.Intn(4)
			}
		}
		out[i] = valueClass(rng, class)
	}
	return out
}

func narrow(a []float64) []float32 {
	out := make([]float32, len(a))
	for i, v := range a {
		out[i] = float32(v)
	}
	return out
}

// offsetCopy returns a view of a copy of a that starts off elements
// into its backing array, so the kernels see every alignment.
func offsetCopy[T float32 | float64](a []T, off int) []T {
	buf := make([]T, off+len(a))
	copy(buf[off:], a)
	return buf[off:]
}

// checkOneRow compares the four one-row dispatchers with their Go bodies.
func checkOneRow(t *testing.T, a, b []float64, b32 []float32) {
	t.Helper()
	if got, want := sqdist(a, b), sqdistGo(a, b); !sameBits(got, want) {
		t.Fatalf("n=%d: sqdist=%v (%#x), Go body %v (%#x)", len(a), got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if got, want := dot(a, b), dotGo(a, b); !sameBits(got, want) {
		t.Fatalf("n=%d: dot=%v (%#x), Go body %v (%#x)", len(a), got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if got, want := sqdistQ32(a, b32), sqdistGo(a, b32); !sameBits(got, want) {
		t.Fatalf("n=%d: sqdistQ32=%v (%#x), Go body %v (%#x)", len(a), got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if got, want := dot32(a, b32), dotGo(a, b32); !sameBits(got, want) {
		t.Fatalf("n=%d: dot32=%v (%#x), Go body %v (%#x)", len(a), got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// checkBox compares the dispatched box distance with its Go body.
func checkBox(t *testing.T, q, lo, hi []float64) {
	t.Helper()
	if got, want := boxSqDist(q, lo, hi), boxSqDistGo(q, lo, hi); !sameBits(got, want) {
		t.Fatalf("n=%d: boxSqDist=%v (%#x), Go body %v (%#x)", len(q), got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// checkMinMax folds x into copies of the extent (lo, hi) through the
// dispatched MinMax and through its Go body, which must agree to the
// bit, NaN payloads included: the k-d trees compare extents by their
// bits.
func checkMinMax(t *testing.T, lo, hi, x []float64) {
	t.Helper()
	glo, ghi := offsetCopy(lo, 1), offsetCopy(hi, 3)
	wlo, whi := slices.Clone(lo), slices.Clone(hi)
	MinMax(glo, ghi, x)
	minMaxGo(wlo, whi, x)
	for j := range x {
		if math.Float64bits(glo[j]) != math.Float64bits(wlo[j]) || math.Float64bits(ghi[j]) != math.Float64bits(whi[j]) {
			t.Fatalf("n=%d MinMax[%d] of (%#x, %#x) and %#x: (%#x, %#x), Go body (%#x, %#x)", len(x), j,
				math.Float64bits(lo[j]), math.Float64bits(hi[j]), math.Float64bits(x[j]),
				math.Float64bits(glo[j]), math.Float64bits(ghi[j]), math.Float64bits(wlo[j]), math.Float64bits(whi[j]))
		}
	}
}

// sameSlicesBits fails t unless got and want agree element by element
// under sameBits.
func sameSlicesBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("n=%d: %s[%d]=%v (%#x), want %v (%#x)",
				len(got), name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkElementwise compares the dispatched Axpy, over float64 and
// float32 x, and Rot with their Go bodies. Each side works on its own
// copy of y (and of x, for Rot) at the alignment off selects.
func checkElementwise(t *testing.T, off int, a, c, s float64, y, x []float64, x32 []float32) {
	t.Helper()
	got, want := offsetCopy(y, off), offsetCopy(y, off)
	Axpy(got, a, x)
	axpyGo(want, a, x)
	sameSlicesBits(t, "Axpy", got, want)

	got, want = offsetCopy(y, off), offsetCopy(y, off)
	Axpy(got, a, x32)
	axpyGo(want, a, x32)
	sameSlicesBits(t, "Axpy[float32]", got, want)

	gx, gy := offsetCopy(x, (off+1)%4), offsetCopy(y, off)
	wx, wy := offsetCopy(x, (off+1)%4), offsetCopy(y, off)
	Rot(gx, gy, c, s)
	rotGo(wx, wy, c, s)
	sameSlicesBits(t, "Rot x", gx, wx)
	sameSlicesBits(t, "Rot y", gy, wy)
}

// boxAround returns the minima and maxima of a and b, element by element,
// so most of q's coordinates fall outside the box on one side or the
// other and some inside it.
func boxAround(a, b []float64) (lo, hi []float64) {
	lo, hi = make([]float64, len(a)), make([]float64, len(a))
	for i := range a {
		lo[i], hi[i] = min(a[i], b[i]), max(a[i], b[i])
	}
	return lo, hi
}

func TestKernelBodiesBitIdentical(t *testing.T) {
	logDispatch(t)
	rng := rand.New(rand.NewSource(80))
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			for trial := 0; trial < 12; trial++ {
				a := offsetCopy(mixedSlice(rng, n), off)
				b := offsetCopy(mixedSlice(rng, n), (off+trial)%4)
				checkOneRow(t, a, b, offsetCopy(narrow(mixedSlice(rng, n)), (off+1)%4))
				lo, hi := boxAround(b, mixedSlice(rng, n))
				checkBox(t, a, offsetCopy(lo, (off+2)%4), offsetCopy(hi, (off+3)%4))
				// An inverted box (lo > hi) and unrelated raw operands: the
				// kernel is arithmetic over any three slices.
				checkBox(t, a, hi, lo)
				checkBox(t, a, b, mixedSlice(rng, n))

				x, x32 := b, offsetCopy(narrow(mixedSlice(rng, n)), (off+trial)%4)
				alpha := valueClass(rng, trial%5)
				if trial == 5 {
					// a = 0 against an infinite x: 0*Inf is NaN, which the
					// elementwise bodies must not skip.
					alpha = math.Copysign(0, float64(off%2)-0.5)
					for i := range x {
						if i%3 == 0 {
							x[i] = math.Inf(1 - 2*(i/3%2))
							x32[i] = float32(x[i])
						}
					}
				}
				checkElementwise(t, off, alpha, valueClass(rng, trial%5), valueClass(rng, (trial+2)%5), a, x, x32)
			}
		}
	}
}

// TestMinMaxBodiesBitIdentical folds rows of every width 0–40 and of
// 512 into extents drawn from the same value classes — ±0, NaN, ±Inf,
// subnormals — at every alignment of each operand: the dispatched body
// must give the Go body's bits.
func TestMinMaxBodiesBitIdentical(t *testing.T) {
	logDispatch(t)
	rng := rand.New(rand.NewSource(83))
	widths := []int{512}
	for n := 0; n <= 40; n++ {
		widths = append(widths, n)
	}
	for _, n := range widths {
		for off := 0; off < 4; off++ {
			for trial := 0; trial < 24; trial++ {
				lo, hi := mixedSlice(rng, n), mixedSlice(rng, n)
				if trial%2 == 0 {
					lo, hi = boxAround(lo, hi)
				}
				checkMinMax(t, offsetCopy(lo, off), offsetCopy(hi, (off+trial)%4), offsetCopy(mixedSlice(rng, n), (off+2)%4))
			}
		}
	}
}

// TestElementwiseOverlapIsSequential gives Axpy, Rot and MinMax
// operands that share memory — the same slice, and one slice shifted by
// one element either way — which must give the bits of the plain
// in-order loop, whichever body the dispatcher picks.
func TestElementwiseOverlapIsSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	seqAxpy := func(y []float64, a float64, x []float64) {
		for i := range y {
			y[i] += a * x[i]
		}
	}
	seqMinMax := func(lo, hi, x []float64) {
		for j := range x {
			lo[j] = min(lo[j], x[j])
			hi[j] = max(hi[j], x[j])
		}
	}
	seqRot := func(x, y []float64, c, s float64) {
		for k := range x {
			xk, yk := x[k], y[k]
			x[k] = c*xk - s*yk
			y[k] = s*xk + c*yk
		}
	}
	for n := 0; n <= 67; n++ {
		base := mixedSlice(rng, n+1)
		x := mixedSlice(rng, n)
		a, c, s := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		for _, shift := range []struct {
			name   string
			yo, xo int
		}{{"same", 0, 0}, {"x=y[1:]", 0, 1}, {"y=x[1:]", 1, 0}} {
			got, want := append([]float64(nil), base...), append([]float64(nil), base...)
			Axpy(got[shift.yo:shift.yo+n], a, got[shift.xo:shift.xo+n])
			seqAxpy(want[shift.yo:shift.yo+n], a, want[shift.xo:shift.xo+n])
			sameSlicesBits(t, "Axpy "+shift.name, got, want)

			got, want = append([]float64(nil), base...), append([]float64(nil), base...)
			Rot(got[shift.xo:shift.xo+n], got[shift.yo:shift.yo+n], c, s)
			seqRot(want[shift.xo:shift.xo+n], want[shift.yo:shift.yo+n], c, s)
			sameSlicesBits(t, "Rot "+shift.name, got, want)

			got, want = append([]float64(nil), base...), append([]float64(nil), base...)
			hiGot := mixedSlice(rng, n)
			hiWant := slices.Clone(hiGot)
			MinMax(got[shift.yo:shift.yo+n], hiGot, got[shift.xo:shift.xo+n])
			seqMinMax(want[shift.yo:shift.yo+n], hiWant, want[shift.xo:shift.xo+n])
			sameSlicesBits(t, "MinMax lo "+shift.name, got, want)
			sameSlicesBits(t, "MinMax hi "+shift.name, hiGot, hiWant)

			got, want = append([]float64(nil), base...), append([]float64(nil), base...)
			MinMax(got[shift.yo:shift.yo+n], got[shift.xo:shift.xo+n], x)
			seqMinMax(want[shift.yo:shift.yo+n], want[shift.xo:shift.xo+n], x)
			sameSlicesBits(t, "MinMax lo=hi "+shift.name, got, want)
		}
	}
}

// TestBatchBodiesBitIdentical covers the four-row passes: 1-9 rows (every
// remainder after the groups of four) at every tail length and query
// alignment, through all four batch entry points.
func TestBatchBodiesBitIdentical(t *testing.T) {
	logDispatch(t)
	rng := rand.New(rand.NewSource(81))
	for dim := 1; dim <= 67; dim++ {
		for rows := 1; rows <= 9; rows++ {
			off := (dim + rows) % 4
			q := offsetCopy(mixedSlice(rng, dim), off)
			points := make([]Vector, rows)
			flat := offsetCopy(make([]float32, rows*dim), (off+1)%4)
			for r := range points {
				points[r] = offsetCopy(mixedSlice(rng, dim), (off+r)%4)
				copy(flat[r*dim:], narrow(mixedSlice(rng, dim)))
			}
			ids := rng.Perm(rows)
			out := make([]float64, rows)
			check := func(name string, r int, want float64) {
				t.Helper()
				if !sameBits(out[r], want) {
					t.Fatalf("%s dim=%d rows=%d row %d: %v (%#x), Go body %v (%#x)",
						name, dim, rows, r, out[r], math.Float64bits(out[r]), want, math.Float64bits(want))
				}
			}
			SquaredEuclideanBatch(q, points, out)
			for r := range out {
				check("SquaredEuclideanBatch", r, sqdistGo(q, points[r]))
			}
			SquaredEuclideanRows(q, points, ids, out)
			for r := range out {
				check("SquaredEuclideanRows", r, sqdistGo(q, points[ids[r]]))
			}
			SquaredEuclideanBatch32(q, flat, out)
			for r := range out {
				check("SquaredEuclideanBatch32", r, sqdistGo(q, flat[r*dim:(r+1)*dim]))
			}
			SquaredEuclideanRows32(q, flat, ids, out)
			for r := range out {
				check("SquaredEuclideanRows32", r, sqdistGo(q, flat[ids[r]*dim:(ids[r]+1)*dim]))
			}
		}
	}
}

// TestFusedDotBodiesBitIdentical covers the fused dot kernels: 1-9 rows
// (every length of a last, repeated-row pass) at every tail length and
// alignment, through the one- and two-query entry points, against the Go
// body row by row; the two-query outputs must also be the one-query
// ones.
func TestFusedDotBodiesBitIdentical(t *testing.T) {
	if !useFMA {
		t.Log("no FMA body on this machine: compared the Go bodies with themselves")
	}
	rng := rand.New(rand.NewSource(84))
	dims := []int{128, 512, 516}
	for dim := 1; dim <= 67; dim++ {
		dims = append(dims, dim)
	}
	for _, dim := range dims {
		for rows := 1; rows <= 9; rows++ {
			off := (dim + rows) % 4
			qa := offsetCopy(mixedSlice(rng, dim), off)
			qb := offsetCopy(mixedSlice(rng, dim), (off+3)%4)
			flat := offsetCopy(mixedSlice(rng, rows*dim), (off+1)%4)
			ids := rng.Perm(rows)
			one, outA, outB := make([]float64, rows), make([]float64, rows), make([]float64, rows)
			DotRowsFMA(qa, flat, ids, one)
			DotRowsFMA2(qa, qb, flat, ids, outA, outB)
			for r, id := range ids {
				p := flat[id*dim : (id+1)*dim]
				for _, c := range []struct {
					name      string
					got, want float64
				}{{"DotRowsFMA", one[r], dotFMAGo(qa, p)}, {"DotRowsFMA2 a", outA[r], one[r]}, {"DotRowsFMA2 b", outB[r], dotFMAGo(qb, p)}} {
					if !sameBits(c.got, c.want) {
						t.Fatalf("%s dim=%d rows=%d row %d: %v (%#x), want %v (%#x)",
							c.name, dim, rows, r, c.got, math.Float64bits(c.got), c.want, math.Float64bits(c.want))
					}
				}
			}
		}
	}
}

func TestBatchRowsMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Rows/out": func() { SquaredEuclideanRows(Vector{1}, []Vector{{1}}, []int{0}, make([]float64, 2)) },
		"Rows/dim": func() { SquaredEuclideanRows(Vector{1}, []Vector{{1, 2}}, []int{0}, make([]float64, 1)) },
		"Rows/dim4": func() {
			SquaredEuclideanRows(Vector{1}, []Vector{{1}, {1}, {1}, {1, 2}}, []int{0, 1, 2, 3}, make([]float64, 4))
		},
		"Rows32/out": func() { SquaredEuclideanRows32([]float64{1}, []float32{1}, []int{0}, nil) },
		"Rows32/range": func() {
			SquaredEuclideanRows32([]float64{1, 2}, make([]float32, 4), []int{0, 1, 2, 0}, make([]float64, 4))
		},
		"Rows32/zero": func() { SquaredEuclideanRows32(nil, nil, nil, nil) },
		"Batch/dim4":  func() { SquaredEuclideanBatch(Vector{1}, []Vector{{1}, {1, 2}, {1}, {1}}, make([]float64, 4)) },
		"FMA/zero":    func() { DotRowsFMA(nil, nil, nil, nil) },
		"FMA/out":     func() { DotRowsFMA([]float64{1}, []float64{1}, []int{0}, nil) },
		"FMA2/widths": func() {
			DotRowsFMA2([]float64{1}, []float64{1, 2}, []float64{1}, []int{0}, make([]float64, 1), make([]float64, 1))
		},
		"FMA2/range": func() {
			DotRowsFMA2([]float64{1}, []float64{1}, []float64{1}, []int{1}, make([]float64, 1), make([]float64, 1))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a panic", name)
				}
			}()
			fn()
		}()
	}
}

// FuzzKernels feeds raw bit patterns — every NaN payload, subnormal and
// infinity the fuzzer finds — to the dispatched bodies and the Go
// bodies, one row and four rows, at the alignment off selects; to
// the fused dots, one query and two; to the box distance, whose query,
// minima and maxima are the thirds of the values, so every length mod 4 is reached; and to Axpy and Rot, whose
// scalars are the last three values.
func FuzzKernels(f *testing.F) {
	seed := func(vals ...float64) []byte {
		var out []byte
		for _, v := range vals {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	f.Add(seed(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), uint8(0))
	f.Add(seed(math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 1e-300, 5e-324, -0.0, 3), uint8(1))
	f.Add(seed(math.Inf(1), 1, 2, 3, math.Inf(1), 4, 5, 6, 7, 8, 9, 10, 11, 12, 13), uint8(2))
	f.Add(make([]byte, 8*67), uint8(3))
	f.Add(seed(0, 1, -1, 2, 3, math.NaN(), -2, -1, math.Inf(1), 1, 4, math.NaN()), uint8(5))
	f.Add(seed(math.Inf(1), 1, math.Inf(-1), 2, 3, 4, 5, 6, 7, 8, 9, math.Inf(1), 0.6, 0.8, 0), uint8(6))
	f.Fuzz(func(t *testing.T, raw []byte, off uint8) {
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		f32 := make([]float32, len(raw)/4)
		for i := range f32 {
			f32[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		n := len(vals) / 2
		a := offsetCopy(vals[:n], int(off%4))
		b := offsetCopy(vals[n:2*n], int(off/4%4))
		b32 := offsetCopy(f32[len(f32)-n:], int(off/16%4))
		checkOneRow(t, a, b, b32)
		m := len(vals) / 3
		checkBox(t, offsetCopy(vals[:m], int(off%4)), offsetCopy(vals[m:2*m], int(off/4%4)), vals[2*m:3*m])
		if len(vals) >= 3 {
			c, s, alpha := vals[len(vals)-3], vals[len(vals)-2], vals[len(vals)-1]
			checkElementwise(t, int(off%4), alpha, c, s, a, b, b32)
		}

		rot := func(s []float64, k int) []float64 {
			if len(s) == 0 {
				return s
			}
			k %= len(s)
			return append(append([]float64(nil), s[k:]...), s[:k]...)
		}
		rows := [4][]float64{b, rot(b, 1), rot(a, 2), rot(b, 3)}
		var out [4]float64
		sqdist4(a, rows[0], rows[1], rows[2], rows[3], &out)
		for r, p := range rows {
			if want := sqdistGo(a, p); !sameBits(out[r], want) {
				t.Fatalf("n=%d sqdist4 row %d: %#x, Go body %#x", n, r, math.Float64bits(out[r]), math.Float64bits(want))
			}
		}
		if n > 0 {
			var fused [8]float64
			dot2x4FMA(a, b, rows[0], rows[1], rows[2], rows[3], (*[4]float64)(fused[:4]), (*[4]float64)(fused[4:]))
			for r, p := range rows {
				if want := dotFMAGo(a, p); !sameBits(fused[r], want) {
					t.Fatalf("n=%d dot2x4FMA a row %d: %#x, Go body %#x", n, r, math.Float64bits(fused[r]), math.Float64bits(want))
				}
				if want := dotFMAGo(b, p); !sameBits(fused[4+r], want) {
					t.Fatalf("n=%d dot2x4FMA b row %d: %#x, Go body %#x", n, r, math.Float64bits(fused[4+r]), math.Float64bits(want))
				}
			}
			dot4FMA(b, rows[0], rows[1], rows[2], rows[3], &out)
			for r, p := range rows {
				if want := dotFMAGo(b, p); !sameBits(out[r], want) {
					t.Fatalf("n=%d dot4FMA row %d: %#x, Go body %#x", n, r, math.Float64bits(out[r]), math.Float64bits(want))
				}
			}
		}
		rows32 := [4][]float32{b32, f32[:n], f32[len(f32)/2-n/2:][:n], narrow(a)}
		sqdistQ32x4(a, rows32[0], rows32[1], rows32[2], rows32[3], &out)
		for r, p := range rows32 {
			if want := sqdistGo(a, p); !sameBits(out[r], want) {
				t.Fatalf("n=%d sqdistQ32x4 row %d: %#x, Go body %#x", n, r, math.Float64bits(out[r]), math.Float64bits(want))
			}
		}
	})
}
