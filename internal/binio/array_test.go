package binio

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// TestArrayMatchesBinaryWrite holds the array codec to an independent
// oracle: after the count word and any pad, the bytes the Writer emits
// for each element type must be binary.Write's little-endian encoding
// of the same values (int as int64), in the plain and the aligned
// layout, on the native path and on the forced conversion path. Each
// stream must then read back bit for bit through the copy and the view
// methods of a stream reader and of a bytes reader, and a bytes
// reader's view of a native, aligned payload must alias the image.
func TestArrayMatchesBinaryWrite(t *testing.T) {
	t.Run("int", func(t *testing.T) {
		oracleArray(t, func(r *rand.Rand) int { return int(r.Uint64()) },
			(*Writer).Ints, (*Reader).Ints, (*Reader).IntsView)
	})
	t.Run("float64", func(t *testing.T) {
		oracleArray(t, func(r *rand.Rand) float64 { return math.Float64frombits(r.Uint64()) },
			(*Writer).Floats, (*Reader).Floats, (*Reader).FloatsView)
	})
	t.Run("float32", func(t *testing.T) {
		oracleArray(t, func(r *rand.Rand) float32 { return math.Float32frombits(r.Uint32()) },
			(*Writer).Float32s, (*Reader).Float32s, (*Reader).Float32sView)
	})
	t.Run("int32", func(t *testing.T) {
		oracleArray(t, func(r *rand.Rand) int32 { return int32(r.Uint32()) },
			(*Writer).Int32s, (*Reader).Int32s, (*Reader).Int32sView)
	})
}

// leBytes is binary.Write's little-endian encoding of s, int as int64.
func leBytes[T elem](t *testing.T, s []T) []byte {
	var fixed any = s
	if is, ok := any(s).([]int); ok {
		wide := make([]int64, len(is))
		for i, v := range is {
			wide[i] = int64(v)
		}
		fixed = wide
	}
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, fixed); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// aligned8 copies b into memory that starts on an 8-byte boundary.
func aligned8(b []byte) []byte {
	back := make([]uint64, len(b)/8+1)
	img := unsafe.Slice((*byte)(unsafe.Pointer(&back[0])), len(b))
	copy(img, b)
	return img
}

func oracleArray[T elem](t *testing.T, gen func(*rand.Rand) T, write func(*Writer, []T), read, view func(*Reader, int) []T) {
	host := hostLittleEndian
	defer func() { hostLittleEndian = host }()
	rng := rand.New(rand.NewSource(4))
	chunk := scratchSize / width[T]()
	for _, n := range []int{0, 1, chunk - 1, chunk, chunk + 1, maxInitialElems + 3} {
		s := make([]T, n)
		for i := range s {
			s[i] = gen(rng)
		}
		want := leBytes(t, s)
		for _, align := range []int{0, 64} {
			pad := int(padLen(int64(align), 8, int64(len(want))))
			for _, nat := range []bool{true, false} {
				if nat && !host {
					continue
				}
				hostLittleEndian = nat
				var buf bytes.Buffer
				w := NewWriter(&buf)
				w.EnableAlign(align, 0)
				write(w, s)
				if err := w.Err(); err != nil {
					t.Fatal(err)
				}
				img := aligned8(buf.Bytes())
				label := func(how string) string {
					return how + map[bool]string{true: " native", false: " converted"}[nat] +
						map[bool]string{true: " aligned", false: " plain"}[align > 0]
				}
				if len(img) != 8+pad+len(want) || binary.LittleEndian.Uint64(img) != uint64(n) ||
					!bytes.Equal(img[8:8+pad], make([]byte, pad)) || !bytes.Equal(img[8+pad:], want) {
					t.Fatalf("n=%d %s: stream is not count, %d zero pad bytes, binary.Write's payload", n, label("write"), pad)
				}
				for _, how := range []struct {
					name         string
					stream, view bool
				}{{"stream copy", true, false}, {"stream view", true, true}, {"bytes copy", false, false}, {"bytes view", false, true}} {
					r := NewBytesReader(img)
					if how.stream {
						r = NewReader(bytes.NewReader(img))
					}
					r.EnableAlign(align, 0)
					get := read
					if how.view {
						get = view
					}
					got := get(r, n)
					if err := r.Err(); err != nil || r.Count() != int64(len(img)) || len(got) != n {
						t.Fatalf("n=%d %s: read %d elements of %d bytes, err %v", n, label(how.name), len(got), r.Count(), err)
					}
					if !bytes.Equal(leBytes(t, got), want) {
						t.Fatalf("n=%d %s: values differ from those written", n, label(how.name))
					}
					aliased := n > 0 && unsafe.Pointer(&got[0]) == unsafe.Pointer(&img[8+pad])
					if wantAlias := !how.stream && how.view && nat && n > 0 && unsafe.Sizeof(got[0]) == uintptr(width[T]()); aliased != wantAlias {
						t.Fatalf("n=%d %s: aliases the image %v, want %v", n, label(how.name), aliased, wantAlias)
					}
				}
			}
		}
	}
}
