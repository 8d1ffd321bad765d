package binio

import (
	"encoding/binary"
	"io"
	"math"
	"strconv"
	"unsafe"
)

// Aligned-layout and zero-copy extensions.
//
// An ALIGNED stream differs from the plain layout in exactly one rule:
// any length-prefixed array whose raw payload is at least
// AlignThreshold bytes has zero padding inserted BETWEEN its count
// word and its payload, enough that the payload's absolute file offset
// is a multiple of the recorded alignment. Pad bytes pass through the
// normal write/read path, so counts and the container CRC cover them.
// Both sides derive the pad deterministically from the absolute
// offset, which is why Writer/Reader carry a base offset: section
// codecs run against sub-writers that must know where in the file
// their byte 0 lands.
//
// A bytes-backed Reader (NewBytesReader) parses an in-memory image —
// typically an mmap'd file — and can hand out zero-copy VIEWS of
// array payloads: when the host is little-endian and the payload is
// suitably aligned in memory, the slice aliases the backing buffer
// and costs O(1); otherwise the view methods silently fall back to
// the copying decode, so callers never branch on platform. Bytes mode
// does not maintain a CRC (hashing the whole image would defeat
// O(page-faults) cold start); CRCTracked reports whether the trailing
// container checksum is comparable.

// AlignThreshold is the minimum raw payload size, in bytes, for an
// array to be padded in aligned mode. Small arrays stay packed — only
// the big flat arrays that dominate an index's footprint pay the pad.
const AlignThreshold = 4096

// hostLittleEndian reports whether the host memory layout matches the
// on-disk little-endian format, which is what makes casts valid.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// NewBytesReader returns a Reader over an in-memory stream image.
// View methods on it are zero-copy where alignment allows. No CRC is
// maintained — see CRCTracked. A nil image is an empty one: every read
// of it is a truncation.
func NewBytesReader(b []byte) *Reader {
	return &Reader{buf: b}
}

// CRCTracked reports whether this reader maintained a CRC over the
// consumed bytes; when false, format readers must skip comparing the
// trailing container checksum.
func (r *Reader) CRCTracked() bool { return r.r != nil }

// EnableAlign switches the writer to the aligned layout: arrays of at
// least AlignThreshold payload bytes pad to an `align`-byte boundary.
// base is the absolute file offset of this writer's byte 0.
func (w *Writer) EnableAlign(align int, base int64) {
	w.align = int64(align)
	w.base = base
}

// EnableAlign mirrors Writer.EnableAlign for the reader side.
func (r *Reader) EnableAlign(align int, base int64) {
	r.align = int64(align)
	r.base = base
}

// padLen returns the pad inserted before a payload of payloadBytes at
// absolute offset abs, or 0 when alignment is off or the array is
// below threshold.
func padLen(align, abs, payloadBytes int64) int64 {
	if align <= 0 || payloadBytes < AlignThreshold {
		return 0
	}
	rem := abs % align
	if rem == 0 {
		return 0
	}
	return align - rem
}

func (w *Writer) alignPad(payloadBytes int64) {
	pad := padLen(w.align, w.base+w.n, payloadBytes)
	for pad > 0 && w.err == nil {
		chunk := pad
		if chunk > scratchSize {
			chunk = scratchSize
		}
		clear(w.scratch[:chunk])
		w.Raw(w.scratch[:chunk])
		pad -= chunk
	}
}

func (r *Reader) alignSkip(payloadBytes int64) {
	r.Skip(padLen(r.align, r.base+r.n, payloadBytes))
}

// Float32s writes a length-prefixed float32 slice (raw IEEE-754 bits,
// little-endian), padding in aligned mode.
func (w *Writer) Float32s(s []float32) {
	w.Uint64(uint64(len(s)))
	w.alignPad(int64(len(s)) * 4)
	for len(s) > 0 && w.err == nil {
		chunk := len(s)
		if chunk > scratchSize/4 {
			chunk = scratchSize / 4
		}
		for i := 0; i < chunk; i++ {
			binary.LittleEndian.PutUint32(w.scratch[i*4:], math.Float32bits(s[i]))
		}
		w.Raw(w.scratch[:chunk*4])
		s = s[chunk:]
	}
}

// Int32s writes a length-prefixed int32 slice, padding in aligned
// mode.
func (w *Writer) Int32s(s []int32) {
	w.Uint64(uint64(len(s)))
	w.alignPad(int64(len(s)) * 4)
	for len(s) > 0 && w.err == nil {
		chunk := len(s)
		if chunk > scratchSize/4 {
			chunk = scratchSize / 4
		}
		for i := 0; i < chunk; i++ {
			binary.LittleEndian.PutUint32(w.scratch[i*4:], uint32(s[i]))
		}
		w.Raw(w.scratch[:chunk*4])
		s = s[chunk:]
	}
}

// Float32s reads a length-prefixed float32 slice, rejecting lengths
// above max.
func (r *Reader) Float32s(max int) []float32 {
	n, ok := r.sliceLen(max)
	if !ok {
		return nil
	}
	r.alignSkip(int64(n) * 4)
	return r.float32sBody(n)
}

func (r *Reader) float32sBody(n int) []float32 {
	cap0 := n
	if cap0 > maxInitialElems {
		cap0 = maxInitialElems
	}
	out := make([]float32, 0, cap0)
	for len(out) < n && r.err == nil {
		chunk := n - len(out)
		if chunk > scratchSize/4 {
			chunk = scratchSize / 4
		}
		r.Raw(r.scratch[:chunk*4])
		if r.err != nil {
			return nil
		}
		for i := 0; i < chunk; i++ {
			out = append(out, math.Float32frombits(binary.LittleEndian.Uint32(r.scratch[i*4:])))
		}
	}
	return out
}

// Int32s reads a length-prefixed int32 slice, rejecting lengths above
// max.
func (r *Reader) Int32s(max int) []int32 {
	n, ok := r.sliceLen(max)
	if !ok {
		return nil
	}
	r.alignSkip(int64(n) * 4)
	return r.int32sBody(n)
}

func (r *Reader) int32sBody(n int) []int32 {
	cap0 := n
	if cap0 > maxInitialElems {
		cap0 = maxInitialElems
	}
	out := make([]int32, 0, cap0)
	for len(out) < n && r.err == nil {
		chunk := n - len(out)
		if chunk > scratchSize/4 {
			chunk = scratchSize / 4
		}
		r.Raw(r.scratch[:chunk*4])
		if r.err != nil {
			return nil
		}
		for i := 0; i < chunk; i++ {
			out = append(out, int32(binary.LittleEndian.Uint32(r.scratch[i*4:])))
		}
	}
	return out
}

// view returns a zero-copy window of n*size bytes when the reader is
// bytes-backed, the host is little-endian, and the current position is
// aligned to elemAlign; ok=false means the caller must take the
// copying path.
func (r *Reader) view(n, size, elemAlign int) (p unsafe.Pointer, ok bool) {
	if r.r != nil || !hostLittleEndian || n == 0 || r.err != nil {
		return nil, false
	}
	need := int64(n) * int64(size)
	if int64(len(r.buf)-r.pos) < need {
		return nil, false // copying path surfaces the truncation error
	}
	addr := unsafe.Pointer(&r.buf[r.pos])
	if uintptr(addr)%uintptr(elemAlign) != 0 {
		return nil, false
	}
	r.pos += int(need)
	r.n += need
	return addr, true
}

// FloatsView reads a length-prefixed float64 slice, returning a
// zero-copy view of the backing buffer when possible and a fresh
// decoded slice otherwise. Callers must treat the result as read-only
// and must not outlive the backing buffer with it.
func (r *Reader) FloatsView(max int) []float64 {
	n, ok := r.sliceLen(max)
	if !ok {
		return nil
	}
	r.alignSkip(int64(n) * 8)
	if p, ok := r.view(n, 8, 8); ok {
		return unsafe.Slice((*float64)(p), n)
	}
	return r.floatsBody(n)
}

// Float32sView is FloatsView for float32 payloads.
func (r *Reader) Float32sView(max int) []float32 {
	n, ok := r.sliceLen(max)
	if !ok {
		return nil
	}
	r.alignSkip(int64(n) * 4)
	if p, ok := r.view(n, 4, 4); ok {
		return unsafe.Slice((*float32)(p), n)
	}
	return r.float32sBody(n)
}

// Int32sView is FloatsView for int32 payloads.
func (r *Reader) Int32sView(max int) []int32 {
	n, ok := r.sliceLen(max)
	if !ok {
		return nil
	}
	r.alignSkip(int64(n) * 4)
	if p, ok := r.view(n, 4, 4); ok {
		return unsafe.Slice((*int32)(p), n)
	}
	return r.int32sBody(n)
}

// IntsView reads a length-prefixed int slice (int64 on disk),
// zero-copy only on 64-bit little-endian hosts.
func (r *Reader) IntsView(max int) []int {
	n, ok := r.sliceLen(max)
	if !ok {
		return nil
	}
	r.alignSkip(int64(n) * 8)
	if strconv.IntSize == 64 {
		if p, ok := r.view(n, 8, 8); ok {
			return unsafe.Slice((*int)(p), n)
		}
	}
	return r.intsBody(n)
}

// View returns the next n raw bytes: a window of the backing buffer in
// bytes mode, a fresh copy in stream mode. Used by container readers
// to hand whole section payloads to leaf codecs.
func (r *Reader) View(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > MaxCount {
		r.Fail(io.ErrUnexpectedEOF)
		return nil
	}
	if r.r == nil {
		if len(r.buf)-r.pos < n {
			r.err = io.ErrUnexpectedEOF
			return nil
		}
		v := r.buf[r.pos : r.pos+n : r.pos+n]
		r.pos += n
		r.n += int64(n)
		return v
	}
	// Stream mode grows the copy as the bytes arrive, so a corrupt length
	// fails with a read error instead of a giant allocation: capacity
	// doubles until half the claimed bytes are in and then jumps to
	// exactly n, so the result — which decoded views keep alive — carries
	// no slack.
	const chunk = 1 << 20
	out := make([]byte, 0, min(n, chunk))
	for len(out) < n {
		k := min(n-len(out), chunk)
		off := len(out)
		if off+k > cap(out) {
			out = append(make([]byte, 0, min(n, 2*cap(out))), out...)
		}
		out = out[:off+k]
		r.Raw(out[off:])
		if r.err != nil {
			return nil
		}
	}
	return out
}
