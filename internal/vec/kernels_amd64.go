package vec

import "unsafe"

// useAVX2 selects the assembly bodies in kernels_amd64.s. It is decided
// once, at package init: the CPU reports AVX2 (CPUID leaf 7, EBX bit 5)
// and the OS saves the YMM registers across context switches (OSXSAVE,
// then XGETBV's XMM and YMM state bits).
var useAVX2 = hasAVX2()

// useFMA selects the fused dot kernels' assembly: AVX2 as above, and the
// CPU reports FMA (CPUID leaf 1, ECX bit 12).
var useFMA = useAVX2 && hasFMA()

func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	const xmmYMMState = 0b110
	if ecx1&osxsave == 0 || ecx1&avx == 0 || xgetbv()&xmmYMMState != xmmYMMState {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func hasFMA() bool {
	_, _, ecx1, _ := cpuid(1, 0)
	return ecx1&(1<<12) != 0
}

// The dispatchers below are the kernel bodies the package calls. Each
// reslices its streamed operands to len(q) (or len(a)) before handing
// raw lengths to assembly, so a short operand panics in Go instead of
// being read past its end.

func sqdist(a, b []float64) float64 {
	if useAVX2 {
		return sqdistAVX2(a, b[:len(a)])
	}
	return sqdistGo(a, b)
}

func sqdistQ32(q []float64, p []float32) float64 {
	if useAVX2 {
		return sqdistQ32AVX2(q, p[:len(q)])
	}
	return sqdistGo(q, p)
}

func dot(a, b []float64) float64 {
	if useAVX2 {
		return dotAVX2(a, b[:len(a)])
	}
	return dotGo(a, b)
}

func dot32(a []float64, b []float32) float64 {
	if useAVX2 {
		return dot32AVX2(a, b[:len(a)])
	}
	return dotGo(a, b)
}

func boxSqDist(q, lo, hi []float64) float64 {
	if useAVX2 {
		return boxSqDistAVX2(q, lo[:len(q)], hi[:len(q)])
	}
	return boxSqDistGo(q, lo, hi)
}

func minMax(lo, hi, x []float64) {
	if useAVX2 && !overlaps(lo, x) && !overlaps(hi, x) && !overlaps(lo, hi) {
		minMaxAVX2(lo[:len(x)], hi[:len(x)], x)
		return
	}
	minMaxGo(lo, hi, x)
}

func axpy(y []float64, a float64, x []float64) {
	if useAVX2 && !overlaps(y, x) {
		axpyAVX2(y, a, x[:len(y)])
		return
	}
	axpyGo(y, a, x)
}

func axpy32(y []float64, a float64, x []float32) {
	if useAVX2 && !overlaps(y, x) {
		axpy32AVX2(y, a, x[:len(y)])
		return
	}
	axpyGo(y, a, x)
}

func rot(x, y []float64, c, s float64) {
	if useAVX2 && !overlaps(x, y) {
		rotAVX2(x, y[:len(x)], c, s)
		return
	}
	rotGo(x, y, c, s)
}

func axpy4(y []float64, a *[4]float64, x0, x1, x2, x3 []float64) {
	n := len(y)
	if !useAVX2 || n == 0 || overlaps(y, x0) || overlaps(y, x1) || overlaps(y, x2) || overlaps(y, x3) {
		axpy4Go(y, a, x0, x1, x2, x3)
		return
	}
	axpy4AVX2(y, a, &x0[:n][0], &x1[:n][0], &x2[:n][0], &x3[:n][0])
}

// overlaps reports whether the memory of y and x intersects. The
// elementwise assembly bodies load a whole pass before they store it,
// so on shared memory they could read a value the in-order loop would
// already have updated; those calls take the Go body.
func overlaps[P Float](y []float64, x []P) bool {
	if len(y) == 0 || len(x) == 0 {
		return false
	}
	y0, x0 := uintptr(unsafe.Pointer(&y[0])), uintptr(unsafe.Pointer(&x[0]))
	return x0 < y0+uintptr(len(y))*8 && y0 < x0+uintptr(len(x))*unsafe.Sizeof(x[0])
}

// sqdist4 writes the squared distances from q to four rows of its
// length into out.
func sqdist4(q, p0, p1, p2, p3 []float64, out *[4]float64) {
	n := len(q)
	if !useAVX2 || n == 0 {
		out[0], out[1], out[2], out[3] = sqdistGo(q, p0), sqdistGo(q, p1), sqdistGo(q, p2), sqdistGo(q, p3)
		return
	}
	sqdist4AVX2(q, &p0[:n][0], &p1[:n][0], &p2[:n][0], &p3[:n][0], out)
}

// sqdistQ32x4 is sqdist4 over float32 rows.
func sqdistQ32x4(q []float64, p0, p1, p2, p3 []float32, out *[4]float64) {
	n := len(q)
	if !useAVX2 || n == 0 {
		out[0], out[1], out[2], out[3] = sqdistGo(q, p0), sqdistGo(q, p1), sqdistGo(q, p2), sqdistGo(q, p3)
		return
	}
	sqdistQ32x4AVX2(q, &p0[:n][0], &p1[:n][0], &p2[:n][0], &p3[:n][0], out)
}

// dot4 writes the dots of w with four rows of its length into out.
func dot4(w, x0, x1, x2, x3 []float64, out *[4]float64) {
	n := len(w)
	if !useAVX2 || n == 0 {
		dot4Go(w, x0, x1, x2, x3, out)
		return
	}
	dot4AVX2(w, &x0[:n][0], &x1[:n][0], &x2[:n][0], &x3[:n][0], out)
}

// dot4FMA writes the fused dots of q with four rows of its length into
// out.
func dot4FMA(q, p0, p1, p2, p3 []float64, out *[4]float64) {
	n := len(q)
	if !useFMA {
		out[0], out[1], out[2], out[3] = dotFMAGo(q, p0), dotFMAGo(q, p1), dotFMAGo(q, p2), dotFMAGo(q, p3)
		return
	}
	dot4FMAAVX2(q, &p0[:n][0], &p1[:n][0], &p2[:n][0], &p3[:n][0], out)
}

// dot2x4FMA writes the fused dots of qa with four rows of its length
// into outA and those of qb, of the same length, into outB.
func dot2x4FMA(qa, qb, p0, p1, p2, p3 []float64, outA, outB *[4]float64) {
	n := len(qa)
	if !useFMA {
		dot4FMA(qa, p0, p1, p2, p3, outA)
		dot4FMA(qb, p0, p1, p2, p3, outB)
		return
	}
	dot2x4FMAAVX2(qa, qb[:n], &p0[:n][0], &p1[:n][0], &p2[:n][0], &p3[:n][0], outA, outB)
}

// Implemented in kernels_amd64.s. Callers pass operands of equal length
// (the four-row forms: rows of len(q)) on a CPU with AVX2, and with FMA
// for the fused forms.

//go:noescape
func sqdistAVX2(a, b []float64) float64

//go:noescape
func sqdistQ32AVX2(q []float64, p []float32) float64

//go:noescape
func dotAVX2(a, b []float64) float64

//go:noescape
func dot32AVX2(a []float64, b []float32) float64

//go:noescape
func axpyAVX2(y []float64, a float64, x []float64)

//go:noescape
func axpy32AVX2(y []float64, a float64, x []float32)

//go:noescape
func axpy4AVX2(y []float64, a *[4]float64, x0, x1, x2, x3 *float64)

//go:noescape
func rotAVX2(x, y []float64, c, s float64)

//go:noescape
func boxSqDistAVX2(q, lo, hi []float64) float64

//go:noescape
func minMaxAVX2(lo, hi, x []float64)

//go:noescape
func sqdist4AVX2(q []float64, p0, p1, p2, p3 *float64, out *[4]float64)

//go:noescape
func sqdistQ32x4AVX2(q []float64, p0, p1, p2, p3 *float32, out *[4]float64)

//go:noescape
func dot4AVX2(w []float64, x0, x1, x2, x3 *float64, out *[4]float64)

//go:noescape
func dot4FMAAVX2(q []float64, p0, p1, p2, p3 *float64, out *[4]float64)

//go:noescape
func dot2x4FMAAVX2(qa, qb []float64, p0, p1, p2, p3 *float64, outA, outB *[4]float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)
