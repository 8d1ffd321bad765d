//go:build !amd64

package vec

// useAVX2 and useFMA are false off amd64: the Go bodies are the only
// ones.
const useAVX2, useFMA = false, false

func sqdist(a, b []float64) float64 { return sqdistGo(a, b) }

func sqdistQ32(q []float64, p []float32) float64 { return sqdistGo(q, p) }

func dot(a, b []float64) float64 { return dotGo(a, b) }

func dot32(a []float64, b []float32) float64 { return dotGo(a, b) }

func axpy(y []float64, a float64, x []float64) { axpyGo(y, a, x) }

func axpy32(y []float64, a float64, x []float32) { axpyGo(y, a, x) }

func axpy4(y []float64, a *[4]float64, x0, x1, x2, x3 []float64) { axpy4Go(y, a, x0, x1, x2, x3) }

func rot(x, y []float64, c, s float64) { rotGo(x, y, c, s) }

func boxSqDist(q, lo, hi []float64) float64 { return boxSqDistGo(q, lo, hi) }

func minMax(lo, hi, x []float64) { minMaxGo(lo, hi, x) }

func sqdist4(q, p0, p1, p2, p3 []float64, out *[4]float64) {
	out[0], out[1], out[2], out[3] = sqdistGo(q, p0), sqdistGo(q, p1), sqdistGo(q, p2), sqdistGo(q, p3)
}

func sqdistQ32x4(q []float64, p0, p1, p2, p3 []float32, out *[4]float64) {
	out[0], out[1], out[2], out[3] = sqdistGo(q, p0), sqdistGo(q, p1), sqdistGo(q, p2), sqdistGo(q, p3)
}

func dot4(w, x0, x1, x2, x3 []float64, out *[4]float64) { dot4Go(w, x0, x1, x2, x3, out) }

func dot4FMA(q, p0, p1, p2, p3 []float64, out *[4]float64) {
	out[0], out[1], out[2], out[3] = dotFMAGo(q, p0), dotFMAGo(q, p1), dotFMAGo(q, p2), dotFMAGo(q, p3)
}

func dot2x4FMA(qa, qb, p0, p1, p2, p3 []float64, outA, outB *[4]float64) {
	dot4FMA(qa, p0, p1, p2, p3, outA)
	dot4FMA(qb, p0, p1, p2, p3, outB)
}
