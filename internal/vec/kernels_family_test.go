package vec

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzKernelFamily feeds raw bit patterns — NaN payloads, subnormals,
// infinities, ±0 — to every kernel whose one Go body serves both storage
// widths: each float32 instantiation must give the bits of its float64
// instantiation on the widened inputs (NaN for NaN), and each gather the
// same bits at int and at int32 indices; Axpy over float32 and Rot must
// also give their Go bodies' bits. raw holds n float32 stored
// values followed by n float64 query-side values (n = len(raw)/12); the
// indices are the stored values' bits modulo n; off picks the alignment
// of each operand in its backing array.
func FuzzKernelFamily(f *testing.F) {
	seed := func(vals ...float64) []byte {
		var out []byte
		for _, v := range vals {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(float32(v)))
		}
		for _, v := range vals {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(-v/3))
		}
		return out
	}
	f.Add(seed(1, 2, 3, 4, 5, 6, 7, 8, 9), 1.75, uint8(0))
	f.Add(seed(math.NaN(), math.Inf(1), math.Inf(-1), 3e38, -1e-40, 1e-45, -0.0, 0, 2), -0.5, uint8(27))
	f.Add(seed(1e300, -1e-300, 5e-324, 1, 2, 3, 4), math.Inf(1), uint8(54))
	f.Add(make([]byte, 12*67), math.Copysign(0, -1), uint8(63))
	f.Fuzz(func(t *testing.T, raw []byte, a float64, off uint8) {
		n := len(raw) / 12
		x32 := make([]float32, n)
		q := make([]float64, n)
		idx := make([]int, n)
		idx32 := make([]int32, n)
		for i := range x32 {
			bits := binary.LittleEndian.Uint32(raw[4*i:])
			x32[i] = math.Float32frombits(bits)
			q[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[4*n+8*i:]))
			idx[i] = int(bits % uint32(n))
			idx32[i] = int32(idx[i])
		}
		x32 = offsetCopy(x32, int(off%4))
		x64 := offsetCopy(widen(x32), int(off/4%4))
		q = offsetCopy(q, int(off/16%4))
		same := func(name string, got, want float64) {
			t.Helper()
			if !sameBits(got, want) {
				t.Fatalf("n=%d %s: %v (%#x), float64 instantiation %v (%#x)",
					n, name, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		sameSlices := func(name string, got, want []float64) {
			t.Helper()
			for i := range got {
				same(name, got[i], want[i])
			}
		}

		same("sqdistGo", sqdistGo(q, x32), sqdistGo(q, x64))
		same("dotGo", dotGo(q, x32), dotGo(q, x64))
		same("Sum", Sum(x32), Sum(x64))

		want := DotGather(x64, idx, q)
		same("DotGather[float32, int]", DotGather(x32, idx, q), want)
		same("DotGather[float32, int32]", DotGather(x32, idx32, q), want)
		same("DotGather[float64, int32]", DotGather(x64, idx32, q), want)

		y32, y64 := offsetCopy(q, int(off/4%4)), offsetCopy(q, int(off%4))
		Axpy(y32, a, x32)
		Axpy(y64, a, x64)
		sameSlices("Axpy", y32, y64)
		yGo := offsetCopy(q, int(off/16%4))
		axpyGo(yGo, a, x32)
		sameSlices("Axpy[float32] Go body", y32, yGo)

		// Rot has one width; its dispatched body must give the Go body's
		// bits, here rotating the widened stored values against q by
		// (c, s) = (a, -a).
		rx, ry := offsetCopy(x64, int(off%4)), offsetCopy(q, int(off/4%4))
		gx, gy := offsetCopy(x64, int(off/16%4)), offsetCopy(q, int(off/32%4))
		Rot(rx, ry, a, -a)
		rotGo(gx, gy, a, -a)
		sameSlices("Rot x", rx, gx)
		sameSlices("Rot y", ry, gy)

		y32, y64 = offsetCopy(q, 1), offsetCopy(q, 2)
		ScatterAxpy(y32, idx, x32, a)
		ScatterAxpy(y64, idx, x64, a)
		sameSlices("ScatterAxpy", y32, y64)
	})
}
