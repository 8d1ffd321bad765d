package binio

import (
	"encoding/binary"
	"math"
	"slices"
	"unsafe"
)

// The array codec. Every length-prefixed array is a uint64 count, the
// aligned layout's pad (see align.go), then the elements little-endian:
// int as int64, the other element types at their own width. One writer
// and one reader serve all four types; the per-type knowledge is the
// element width and the two conversion loops, encode and decode.

// elem is an array element type of the format.
type elem interface {
	int | int32 | float32 | float64
}

// width returns the encoded size of one T in bytes.
func width[T elem]() int {
	var z T
	switch any(z).(type) {
	case int, float64:
		return 8
	}
	return 4
}

// native reports whether T's memory already is its encoding: a
// little-endian host, and for int a 64-bit one.
func native[T elem]() bool {
	var z T
	return hostLittleEndian && int(unsafe.Sizeof(z)) == width[T]()
}

// bytesOf returns the memory of s, which must be native.
func bytesOf[T elem](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*width[T]())
}

// Ints writes a length-prefixed int slice (int64 on disk).
func (w *Writer) Ints(s []int) { writeArray(w, s) }

// Floats writes a length-prefixed float64 slice.
func (w *Writer) Floats(s []float64) { writeArray(w, s) }

// Float32s writes a length-prefixed float32 slice.
func (w *Writer) Float32s(s []float32) { writeArray(w, s) }

// Int32s writes a length-prefixed int32 slice.
func (w *Writer) Int32s(s []int32) { writeArray(w, s) }

// writeArray writes the count, the pad, then the payload: the slice's
// own bytes where they are its encoding (Raw's writer must not keep or
// change them, io.Writer's rule), else scratch-sized converted chunks.
func writeArray[T elem](w *Writer, s []T) {
	size := width[T]()
	w.Uint64(uint64(len(s)))
	w.alignPad(int64(len(s)) * int64(size))
	if native[T]() && len(s) > 0 {
		w.Raw(bytesOf(s))
		return
	}
	for len(s) > 0 && w.err == nil {
		k := min(len(s), scratchSize/size)
		encode(w.scratch[:k*size], s[:k])
		w.Raw(w.scratch[:k*size])
		s = s[k:]
	}
}

// encode writes the little-endian encoding of s into b.
func encode[T elem](b []byte, s []T) {
	le := binary.LittleEndian
	switch s := any(s).(type) {
	case []int:
		for i, v := range s {
			le.PutUint64(b[8*i:], uint64(int64(v)))
		}
	case []float64:
		for i, v := range s {
			le.PutUint64(b[8*i:], math.Float64bits(v))
		}
	case []float32:
		for i, v := range s {
			le.PutUint32(b[4*i:], math.Float32bits(v))
		}
	case []int32:
		for i, v := range s {
			le.PutUint32(b[4*i:], uint32(v))
		}
	}
}

// Ints reads a length-prefixed int slice, rejecting lengths above max.
// A value the platform's int cannot hold fails the reader.
func (r *Reader) Ints(max int) []int { return readArray[int](r, max, false) }

// Floats reads a length-prefixed float64 slice, rejecting lengths
// above max.
func (r *Reader) Floats(max int) []float64 { return readArray[float64](r, max, false) }

// Float32s reads a length-prefixed float32 slice, rejecting lengths
// above max.
func (r *Reader) Float32s(max int) []float32 { return readArray[float32](r, max, false) }

// Int32s reads a length-prefixed int32 slice, rejecting lengths above
// max.
func (r *Reader) Int32s(max int) []int32 { return readArray[int32](r, max, false) }

// IntsView is Ints, zero-copy where the reader allows (below); on a
// 32-bit host it always copies.
func (r *Reader) IntsView(max int) []int { return readArray[int](r, max, true) }

// FloatsView reads a length-prefixed float64 slice, returning a
// zero-copy view of the backing buffer when possible and a fresh
// decoded slice otherwise. Callers must treat the result as read-only
// and must not outlive the backing buffer with it.
func (r *Reader) FloatsView(max int) []float64 { return readArray[float64](r, max, true) }

// Float32sView is FloatsView for float32 payloads.
func (r *Reader) Float32sView(max int) []float32 { return readArray[float32](r, max, true) }

// Int32sView is FloatsView for int32 payloads.
func (r *Reader) Int32sView(max int) []int32 { return readArray[int32](r, max, true) }

// readArray reads the count and skips the pad. With view set, a
// bytes-backed reader whose payload is aligned in memory to the element
// width returns a window into its buffer. Otherwise the payload is
// copied into an output that grows as the bytes arrive, so a corrupt
// count fails on missing bytes instead of a giant allocation.
func readArray[T elem](r *Reader, max int, view bool) []T {
	n, ok := r.sliceLen(max)
	if !ok {
		return nil
	}
	size, nat := width[T](), native[T]()
	r.alignSkip(int64(n) * int64(size))
	if r.err != nil {
		return nil
	}
	if view && nat && r.r == nil && n > 0 && int64(len(r.buf)-r.pos) >= int64(n)*int64(size) {
		if p := unsafe.Pointer(&r.buf[r.pos]); uintptr(p)%uintptr(size) == 0 {
			r.pos += n * size
			r.n += int64(n * size)
			return unsafe.Slice((*T)(p), n)
		}
	}
	out := make([]T, 0, min(n, maxInitialElems))
	for len(out) < n {
		k := min(n-len(out), scratchSize/size)
		off := len(out)
		out = slices.Grow(out, k)[:off+k]
		if nat {
			r.Raw(bytesOf(out[off:]))
		} else {
			r.Raw(r.scratch[:k*size])
			decode(r, out[off:], r.scratch[:k*size])
		}
		if r.err != nil {
			return nil
		}
	}
	return out
}

// decode converts the little-endian encoding b into out; ints narrow
// through Reader.narrow.
func decode[T elem](r *Reader, out []T, b []byte) {
	le := binary.LittleEndian
	switch out := any(out).(type) {
	case []int:
		for i := range out {
			out[i] = r.narrow(int64(le.Uint64(b[8*i:])))
		}
	case []float64:
		for i := range out {
			out[i] = math.Float64frombits(le.Uint64(b[8*i:]))
		}
	case []float32:
		for i := range out {
			out[i] = math.Float32frombits(le.Uint32(b[4*i:]))
		}
	case []int32:
		for i := range out {
			out[i] = int32(le.Uint32(b[4*i:]))
		}
	}
}
