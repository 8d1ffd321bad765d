package binio

import (
	"io"
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
