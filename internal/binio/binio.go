// Package binio provides the primitive little-endian codec that the
// Mogul index persistence format is built from: int64, uint64 and
// float64 scalars, int64 0/1 flags (Reader.Bool refuses any other
// value), and arrays of int (stored as int64), int32, float64 and
// float32, each a uint64 count and then the elements. In the aligned
// layout (align.go) a large array has zero padding between its count
// and its elements so that they start on the alignment; one generic
// writer and one generic reader (array.go) encode all four array
// element types.
//
// Writer and Reader carry a sticky error (the first failure wins) so
// codec code can emit a whole record and check once, and both maintain
// a running CRC-32 (IEEE) over every byte that passes through, which
// the container format uses for its trailing checksum.
//
// Truncated input surfaces as io.ErrUnexpectedEOF rather than io.EOF,
// so "file ended in the middle of a record" is distinguishable from
// "no more records". Slice reads allocate incrementally while the
// bytes actually arrive, so a corrupt length prefix fails with a read
// error instead of attempting a multi-gigabyte allocation.
package binio

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"strconv"
)

// scratchSize is the staging-buffer size used to batch slice
// conversions; one syscall per 32 KiB instead of one per element.
const scratchSize = 32 * 1024

// maxInitialElems caps the up-front allocation for a length-prefixed
// slice. Longer slices grow as their bytes arrive, so a corrupted
// length cannot trigger an allocation bomb.
const maxInitialElems = 1 << 17

// MaxCount is the shared sanity bound on decoded counts (matrix
// dimensions, node counts, section lengths). It sits far above any
// realistic index so it never constrains real data; it only makes
// corrupt headers fail fast with a clear error. Capped at the
// platform's int range so 32-bit builds stay compilable.
const MaxCount = min(1<<40, math.MaxInt)

// Writer streams primitive values to an io.Writer, tracking byte count
// and CRC-32. Errors are sticky: after the first failure every call is
// a no-op and Err returns the failure.
type Writer struct {
	w       io.Writer
	crc     hash.Hash32
	n       int64
	err     error
	align   int64 // 0 = plain layout; else large arrays pad to this boundary
	base    int64 // absolute file offset of byte 0 of this writer
	scratch [scratchSize]byte
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, crc: crc32.NewIEEE()}
}

// Err returns the first error encountered, if any.
func (w *Writer) Err() error { return w.err }

// Count returns the number of bytes written so far.
func (w *Writer) Count() int64 { return w.n }

// Sum32 returns the CRC-32 (IEEE) of every byte written so far.
func (w *Writer) Sum32() uint32 { return w.crc.Sum32() }

// Raw writes p verbatim.
func (w *Writer) Raw(p []byte) {
	if w.err != nil {
		return
	}
	m, err := w.w.Write(p)
	w.n += int64(m)
	w.crc.Write(p[:m])
	if err != nil {
		w.err = err
	} else if m != len(p) {
		w.err = io.ErrShortWrite
	}
}

// Write is Raw behind io.Writer, so a nested stream codec can write
// straight into an enclosing section.
func (w *Writer) Write(p []byte) (int, error) {
	w.Raw(p)
	if w.err != nil {
		return 0, w.err
	}
	return len(p), nil
}

// Uint32 writes a little-endian uint32.
func (w *Writer) Uint32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.Raw(b[:])
}

// Uint64 writes a little-endian uint64.
func (w *Writer) Uint64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Raw(b[:])
}

// Int writes an int as a two's-complement little-endian int64.
func (w *Writer) Int(v int) { w.Uint64(uint64(int64(v))) }

// Bool writes a flag as the int64 0 or 1 the formats store.
func (w *Writer) Bool(v bool) {
	if v {
		w.Int(1)
	} else {
		w.Int(0)
	}
}

// Float64 writes the IEEE-754 bits of v.
func (w *Writer) Float64(v float64) { w.Uint64(math.Float64bits(v)) }

// Reader streams primitive values from an io.Reader, mirroring Writer.
// Errors are sticky; truncation is reported as io.ErrUnexpectedEOF.
type Reader struct {
	r       io.Reader
	buf     []byte // the image in bytes-backed mode (r == nil: zero-copy views, no CRC)
	pos     int
	crc     hash.Hash32
	n       int64
	err     error
	align   int64 // mirrors Writer.align
	base    int64 // absolute file offset of byte 0 of this reader
	scratch [scratchSize]byte
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, crc: crc32.NewIEEE()}
}

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Count returns the number of bytes consumed so far.
func (r *Reader) Count() int64 { return r.n }

// Sum32 returns the CRC-32 (IEEE) of every byte consumed so far, or 0
// for a bytes-backed reader (which maintains no CRC; see CRCTracked).
func (r *Reader) Sum32() uint32 {
	if r.crc == nil {
		return 0
	}
	return r.crc.Sum32()
}

// Fail records err (unless one is already sticky) and returns it.
func (r *Reader) Fail(err error) error {
	if r.err == nil {
		r.err = err
	}
	return r.err
}

// Raw fills p, failing with io.ErrUnexpectedEOF on truncation.
func (r *Reader) Raw(p []byte) {
	if r.err != nil {
		return
	}
	if r.r == nil {
		m := copy(p, r.buf[r.pos:])
		r.pos += m
		r.n += int64(m)
		if m != len(p) {
			r.err = io.ErrUnexpectedEOF
		}
		return
	}
	m, err := io.ReadFull(r.r, p)
	r.n += int64(m)
	r.crc.Write(p[:m])
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		r.err = err
	}
}

// Uint32 reads a little-endian uint32.
func (r *Reader) Uint32() uint32 {
	var b [4]byte
	r.Raw(b[:])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b[:])
}

// Uint64 reads a little-endian uint64.
func (r *Reader) Uint64() uint64 {
	var b [8]byte
	r.Raw(b[:])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b[:])
}

// Int reads an int64 as an int. A value the platform's int cannot hold
// (past ±2³¹ on a 32-bit one) fails the reader and reads as 0.
func (r *Reader) Int() int { return r.narrow(int64(r.Uint64())) }

// narrow returns v as an int, or fails the reader and returns 0 when it
// does not fit.
func (r *Reader) narrow(v int64) int {
	if int64(int(v)) != v {
		r.Fail(fmt.Errorf("binio: corrupt int %d: past a %d-bit int", v, strconv.IntSize))
		return 0
	}
	return int(v)
}

// Float64 reads IEEE-754 bits.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Bool reads a flag Writer.Bool wrote. Anything but 0 or 1 fails the
// reader and reads as false.
func (r *Reader) Bool() bool {
	v := r.Uint64()
	if v > 1 {
		r.Fail(fmt.Errorf("binio: corrupt flag %d: want 0 or 1", int64(v)))
		return false
	}
	return v == 1
}

// sliceLen reads and validates a length prefix against max.
func (r *Reader) sliceLen(max int) (int, bool) {
	n := r.Uint64()
	if r.err != nil {
		return 0, false
	}
	if max < 0 {
		max = 0
	}
	if n > uint64(max) {
		r.Fail(fmt.Errorf("binio: slice length %d exceeds limit %d", n, max))
		return 0, false
	}
	return int(n), true
}

// Skip discards exactly n bytes (counted and checksummed, so skipped
// sections still participate in the container CRC).
func (r *Reader) Skip(n int64) {
	if r.err != nil || n <= 0 {
		return
	}
	for n > 0 && r.err == nil {
		chunk := n
		if chunk > scratchSize {
			chunk = scratchSize
		}
		r.Raw(r.scratch[:chunk])
		n -= chunk
	}
}
