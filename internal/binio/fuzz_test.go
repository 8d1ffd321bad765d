package binio

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReader drives the primitive decoder with arbitrary bytes through
// a fixed read script covering every primitive, once from a stream
// reader and once from a bytes reader. The contract: no panic, no giant
// allocation from corrupt length prefixes, errors are sticky,
// truncation surfaces as io.ErrUnexpectedEOF rather than io.EOF, and
// the two readers either both fail or both return the same values.
func FuzzReader(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Uint32(7)
	w.Int(-42)
	w.Float64(3.5)
	w.Ints([]int{1, 2, 3})
	w.Floats([]float64{0.5, -0.25})
	w.Float32s([]float32{1.5})
	w.Int32s([]int32{-9, 4})
	w.Ints([]int{8})
	w.Floats(nil)
	w.Float32s([]float32{2, -3})
	w.Int32s([]int32{5})
	w.Bool(true)
	w.Uint64(999)
	if err := w.Err(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64)) // maximal length prefixes

	f.Fuzz(func(t *testing.T, data []byte) {
		script := func(r *Reader) []byte {
			const max = 1 << 20
			var out bytes.Buffer
			e := NewWriter(&out)
			e.Uint32(r.Uint32())
			e.Int(r.Int())
			e.Float64(r.Float64())
			e.Ints(capped(t, r.Ints(max)))
			e.Floats(capped(t, r.Floats(max)))
			e.Float32s(capped(t, r.Float32s(max)))
			e.Int32s(capped(t, r.Int32s(max)))
			e.Ints(capped(t, r.IntsView(max)))
			e.Floats(capped(t, r.FloatsView(max)))
			e.Float32s(capped(t, r.Float32sView(max)))
			e.Int32s(capped(t, r.Int32sView(max)))
			e.Bool(r.Bool())
			e.Uint64(r.Uint64())
			if err := r.Err(); err != nil {
				// Sticky error: every later read is a no-op zero value.
				if got := r.Uint64(); got != 0 {
					t.Fatalf("read after error returned %d", got)
				}
				if err == io.EOF {
					t.Fatal("truncation reported as io.EOF, want io.ErrUnexpectedEOF")
				}
				return nil
			}
			return out.Bytes()
		}
		stream := script(NewReader(bytes.NewReader(data)))
		mem := script(NewBytesReader(data))
		if (stream == nil) != (mem == nil) || !bytes.Equal(stream, mem) {
			t.Fatalf("stream reader read %x, bytes reader %x", stream, mem)
		}
	})
}

// capped fails the fuzz run on a slice past the script's length limit.
func capped[T elem](t *testing.T, s []T) []T {
	if len(s) > 1<<20 {
		t.Fatalf("slice bound ignored: %d elements", len(s))
	}
	return s
}
