package binio

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

func TestFloat32sInt32sRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 3, 1000, 9001} {
		f := make([]float32, n)
		x := make([]int32, n)
		for i := range f {
			f[i] = float32(rng.NormFloat64())
			x[i] = rng.Int31() - 1<<30
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Float32s(f)
		w.Int32s(x)
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		r := NewReader(bytes.NewReader(buf.Bytes()))
		gf := r.Float32s(MaxCount)
		gx := r.Int32s(MaxCount)
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		if len(gf) != n || len(gx) != n {
			t.Fatalf("n=%d: round-trip lengths %d/%d", n, len(gf), len(gx))
		}
		for i := range gf {
			if gf[i] != f[i] || gx[i] != x[i] {
				t.Fatalf("n=%d: mismatch at %d", n, i)
			}
		}
		if r.Sum32() != w.Sum32() {
			t.Fatalf("n=%d: CRC mismatch", n)
		}
	}
}

// The aligned layout pads large arrays to the boundary; the reader
// must land the payload view on the same offsets, and the views must
// be bit-identical to the copying decode.
func TestAlignedRoundTripAndViews(t *testing.T) {
	const align = 4096
	rng := rand.New(rand.NewSource(2))
	big := make([]float64, AlignThreshold) // 8*threshold bytes, padded
	big32 := make([]float32, 2*AlignThreshold)
	ints := make([]int, AlignThreshold)
	small := []float64{1, 2, 3} // below threshold: never padded
	for i := range big {
		big[i] = rng.NormFloat64()
		ints[i] = rng.Int()
	}
	for i := range big32 {
		big32[i] = float32(rng.NormFloat64())
	}

	const base = 24 // pretend a container header precedes us
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.EnableAlign(align, base)
	w.Float64(math.Pi) // misalign the stream
	w.Floats(small)
	w.Floats(big)
	w.Float32s(big32)
	w.Ints(ints)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	check := func(r *Reader, label string, wantView bool) {
		t.Helper()
		if got := r.Float64(); got != math.Pi {
			t.Fatalf("%s: header %v", label, got)
		}
		if got := r.FloatsView(MaxCount); len(got) != len(small) || got[0] != 1 {
			t.Fatalf("%s: small = %v", label, got)
		}
		gotBig := r.FloatsView(MaxCount)
		got32 := r.Float32sView(MaxCount)
		gotInts := r.IntsView(MaxCount)
		if err := r.Err(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for i := range big {
			if gotBig[i] != big[i] || gotInts[i] != ints[i] {
				t.Fatalf("%s: payload mismatch at %d", label, i)
			}
		}
		for i := range big32 {
			if got32[i] != big32[i] {
				t.Fatalf("%s: f32 payload mismatch at %d", label, i)
			}
		}
		if wantView && hostLittleEndian {
			if uintptr(unsafe.Pointer(&gotBig[0]))%8 != 0 {
				t.Fatalf("%s: view not 8-aligned", label)
			}
		}
	}

	// Stream (copying) reader.
	r := NewReader(bytes.NewReader(buf.Bytes()))
	r.EnableAlign(align, base)
	check(r, "stream", false)
	if r.Sum32() != w.Sum32() {
		t.Fatal("stream: CRC mismatch over aligned layout")
	}

	// Bytes-backed reader over a buffer whose element alignment allows
	// zero-copy: allocate 8-aligned backing and copy in.
	backing := make([]float64, (align+buf.Len())/8+2)
	bb := unsafe.Slice((*byte)(unsafe.Pointer(&backing[0])), len(backing)*8)
	// Place the image so that (absolute offset base+0) corresponds to a
	// position where payloads land 8-aligned in memory: payloads sit at
	// absolute offsets ≡ 0 (mod 4096), so start the image at bb[base].
	copy(bb[align-base:], buf.Bytes())
	br := NewBytesReader(bb[align-base : align-base+buf.Len()])
	br.EnableAlign(align, base)
	check(br, "bytes", true)
	if br.CRCTracked() {
		t.Fatal("bytes reader claims CRC tracking")
	}

	// A truncated image errors, never panics.
	for _, cut := range []int{1, 9, align, buf.Len() - 1} {
		tr := NewBytesReader(bb[align-base : align-base+cut])
		tr.EnableAlign(align, base)
		tr.Float64()
		tr.FloatsView(MaxCount)
		tr.FloatsView(MaxCount)
		tr.Float32sView(MaxCount)
		tr.IntsView(MaxCount)
		if tr.Err() == nil {
			t.Fatalf("truncation at %d: no error", cut)
		}
	}
}

func TestViewStreamEquivalence(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Int32s([]int32{5, -7, 9})
	w.Float32s([]float32{0.5, -1.5})
	r1 := NewReader(bytes.NewReader(buf.Bytes()))
	r2 := NewBytesReader(buf.Bytes())
	a1, b1 := r1.Int32sView(MaxCount), r1.Float32sView(MaxCount)
	a2, b2 := r2.Int32sView(MaxCount), r2.Float32sView(MaxCount)
	if r1.Err() != nil || r2.Err() != nil {
		t.Fatal(r1.Err(), r2.Err())
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("int32 view mismatch")
		}
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatal("float32 view mismatch")
		}
	}
}

// TestRawViewMatchesConversion: on a little-endian host Floats,
// Float32s, Int32s and (64-bit) Ints hand Raw the slice's own bytes; the stream, its
// count and its CRC must be the element-by-element conversion's, byte
// for byte, at lengths around one scratch chunk and around scratchSize
// elements, in the plain and the aligned layout, from slices that start
// off their backing array's first element and at an odd stream offset.
func TestRawViewMatchesConversion(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("big-endian host: the conversion is the only path")
	}
	defer func() { hostLittleEndian = true }()
	rng := rand.New(rand.NewSource(3))
	lengths := []int{0, 1, scratchSize/8 - 1, scratchSize / 8, scratchSize/8 + 1,
		scratchSize/4 - 1, scratchSize / 4, scratchSize/4 + 1, scratchSize - 1, scratchSize, scratchSize + 1}
	for _, n := range lengths {
		f64 := make([]float64, n+1)[1:]
		f32 := make([]float32, n+1)[1:]
		i32 := make([]int32, n+1)[1:]
		ints := make([]int, n+1)[1:]
		for i := range f64 {
			f64[i] = math.Float64frombits(rng.Uint64())
			f32[i] = math.Float32frombits(rng.Uint32())
			i32[i] = int32(rng.Uint32())
			ints[i] = int(rng.Uint64())
		}
		for _, align := range []int{0, 64} {
			write := func(view bool) ([]byte, int64, uint32) {
				hostLittleEndian = view
				var buf bytes.Buffer
				w := NewWriter(&buf)
				if align > 0 {
					w.EnableAlign(align, 3)
				}
				w.Raw([]byte{7})
				w.Floats(f64)
				w.Float32s(f32)
				w.Raw([]byte{1, 2, 3})
				w.Int32s(i32)
				w.Ints(ints)
				if err := w.Err(); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes(), w.Count(), w.Sum32()
			}
			got, gotN, gotCRC := write(true)
			want, wantN, wantCRC := write(false)
			if !bytes.Equal(got, want) || gotN != wantN || gotCRC != wantCRC {
				t.Fatalf("n=%d align=%d: view wrote %d bytes (count %d, CRC %#x), conversion %d (count %d, CRC %#x)",
					n, align, len(got), gotN, gotCRC, len(want), wantN, wantCRC)
			}
		}
	}
}
