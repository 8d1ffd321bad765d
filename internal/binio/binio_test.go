package binio

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strconv"
	"testing"
)

func TestRoundTripPrimitives(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uint32(0xdeadbeef)
	w.Uint64(1 << 62)
	w.Int(-42)
	w.Float64(math.Pi)
	w.Ints([]int{0, -1, math.MaxInt, math.MinInt})
	w.Floats([]float64{0, -1.5, math.Inf(1), math.SmallestNonzeroFloat64})
	w.Floats(nil)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != int64(buf.Len()) {
		t.Fatalf("Count %d != buffer %d", w.Count(), buf.Len())
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	if v := r.Uint32(); v != 0xdeadbeef {
		t.Fatalf("Uint32 = %x", v)
	}
	if v := r.Uint64(); v != 1<<62 {
		t.Fatalf("Uint64 = %d", v)
	}
	if v := r.Int(); v != -42 {
		t.Fatalf("Int = %d", v)
	}
	if v := r.Float64(); v != math.Pi {
		t.Fatalf("Float64 = %g", v)
	}
	ints := r.Ints(10)
	if len(ints) != 4 || ints[1] != -1 || ints[2] != math.MaxInt || ints[3] != math.MinInt {
		t.Fatalf("Ints = %v", ints)
	}
	floats := r.Floats(10)
	if len(floats) != 4 || floats[1] != -1.5 || !math.IsInf(floats[2], 1) {
		t.Fatalf("Floats = %v", floats)
	}
	if v := r.Floats(10); len(v) != 0 {
		t.Fatalf("empty Floats = %v", v)
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Sum32() != w.Sum32() {
		t.Fatalf("CRC mismatch: read %08x, wrote %08x", r.Sum32(), w.Sum32())
	}
}

// TestBoolRefusesOtherValues: Bool reads Writer.Bool's 0 and 1 and fails
// the reader on any other int64.
func TestBoolRefusesOtherValues(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Bool(false)
	w.Bool(true)
	w.Int(2)
	w.Int(-1)
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if r.Bool() || !r.Bool() || r.Err() != nil {
		t.Fatalf("Bool did not read back false, true: err %v", r.Err())
	}
	if r.Bool() || r.Err() == nil {
		t.Fatal("Bool accepted 2")
	}
	r = NewBytesReader(buf.Bytes()[24:])
	if r.Bool() || r.Err() == nil {
		t.Fatal("Bool accepted -1")
	}
}

// TestIntRefusesValuesPastInt reads 2⁴⁰ and −2⁴⁰ through Int and Ints:
// a 64-bit int holds them, and on a 32-bit platform the reader fails
// rather than truncating them.
func TestIntRefusesValuesPastInt(t *testing.T) {
	const big = int64(1) << 40
	for _, v := range []int64{big, -big} {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Uint64(uint64(v))
		w.Uint64(1) // Ints' length prefix
		w.Uint64(uint64(v))
		r := NewReader(bytes.NewReader(buf.Bytes()))
		got := r.Int()
		if strconv.IntSize == 64 {
			ints := r.Ints(1)
			if int64(got) != v || len(ints) != 1 || int64(ints[0]) != v || r.Err() != nil {
				t.Fatalf("Int = %d, Ints = %v, err %v; want %d", got, ints, r.Err(), v)
			}
			continue
		}
		if got != 0 || r.Err() == nil {
			t.Fatalf("Int = %d, err %v: %d accepted by a %d-bit int", got, r.Err(), v, strconv.IntSize)
		}
		r = NewReader(bytes.NewReader(buf.Bytes()[8:]))
		if ints := r.Ints(1); ints != nil || r.Err() == nil {
			t.Fatalf("Ints = %v, err %v: %d accepted by a %d-bit int", ints, r.Err(), v, strconv.IntSize)
		}
	}
}

func TestLargeSliceRoundTrip(t *testing.T) {
	// Larger than one scratch chunk, so the batching paths are hit.
	n := 3*scratchSize/8 + 17
	ints := make([]int, n)
	floats := make([]float64, n)
	for i := range ints {
		ints[i] = i * 31
		floats[i] = float64(i) / 7
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Ints(ints)
	w.Floats(floats)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	gotI := r.Ints(n)
	gotF := r.Floats(n)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range ints {
		if gotI[i] != ints[i] || gotF[i] != floats[i] {
			t.Fatalf("element %d differs", i)
		}
	}
}

func TestTruncationIsUnexpectedEOF(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Ints(make([]int, 100))
	data := buf.Bytes()[:buf.Len()/2]
	r := NewReader(bytes.NewReader(data))
	r.Ints(100)
	if !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", r.Err())
	}
	// Sticky: later reads keep failing without panicking.
	r.Uint64()
	r.Floats(5)
	if r.Err() == nil {
		t.Fatal("error not sticky")
	}
}

func TestSliceLengthLimit(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uint64(1 << 50) // absurd length prefix with no data behind it
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if r.Ints(1000); r.Err() == nil {
		t.Fatal("oversized length accepted")
	}
	// A corrupt length below the limit must fail on missing bytes, not
	// allocate the claimed amount up front.
	buf.Reset()
	w = NewWriter(&buf)
	w.Uint64(1 << 30)
	r = NewReader(bytes.NewReader(buf.Bytes()))
	if r.Floats(math.MaxInt32); !errors.Is(r.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", r.Err())
	}
}

func TestSkipCountsTowardChecksum(t *testing.T) {
	payload := []byte("0123456789abcdef0123456789abcdef")
	full := NewReader(bytes.NewReader(payload))
	full.Raw(make([]byte, len(payload)))

	skip := NewReader(bytes.NewReader(payload))
	skip.Skip(int64(len(payload)))
	if skip.Err() != nil {
		t.Fatal(skip.Err())
	}
	if skip.Sum32() != full.Sum32() || skip.Count() != full.Count() {
		t.Fatal("Skip diverges from Raw in CRC or count")
	}
}
