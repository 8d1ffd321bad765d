package sparse

import (
	"bytes"
	"reflect"
	"testing"

	"mogul/internal/binio"
)

// encodeCSR returns the matrix's record in the given precision.
func encodeCSR(tb testing.TB, m *CSR, f32 bool) []byte {
	tb.Helper()
	var buf bytes.Buffer
	bw := binio.NewWriter(&buf)
	if err := m.Encode(bw, f32); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// csrReaders opens a record both ways the containers do: streamed and
// as an in-memory image (zero-copy views).
func csrReaders(data []byte) map[string]*binio.Reader {
	return map[string]*binio.Reader{
		"stream": binio.NewReader(bytes.NewReader(data)),
		"bytes":  binio.NewBytesReader(data),
	}
}

func TestCSRCodecRoundTrip(t *testing.T) {
	m, err := NewFromCoords(4, 5, []Coord{
		{0, 1, 2.5}, {0, 4, -1}, {2, 0, 3}, {3, 3, 0.125},
	})
	if err != nil {
		t.Fatal(err)
	}
	narrow := *m
	narrow.Narrow32()
	for _, tc := range []struct {
		want *CSR
		f32  bool
	}{{m, false}, {&narrow, true}} {
		for name, br := range csrReaders(encodeCSR(t, tc.want, tc.f32)) {
			got, err := ReadCSR(br, tc.f32)
			if err != nil {
				t.Fatalf("%s f32=%v: %v", name, tc.f32, err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("%s f32=%v: round trip mismatch:\n got %+v\nwant %+v", name, tc.f32, got, tc.want)
			}
		}
	}
	// A record only decodes in the precision that wrote it, and a matrix
	// only encodes in the precision it stores.
	if err := m.Encode(binio.NewWriter(&bytes.Buffer{}), true); err == nil {
		t.Fatal("f32 encode of a float64 matrix accepted")
	}
	if err := narrow.Encode(binio.NewWriter(&bytes.Buffer{}), false); err == nil {
		t.Fatal("f64 encode of an f32 matrix accepted")
	}
}

func TestCSRCodecEmptyMatrix(t *testing.T) {
	m, err := NewFromCoords(3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f32 := range []bool{false, true} {
		got, err := ReadCSR(binio.NewBytesReader(encodeCSR(t, m, f32)), f32)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rows != 3 || got.NNZ() != 0 {
			t.Fatalf("got %+v", got)
		}
	}
}

func TestReadCSRRejectsCorruption(t *testing.T) {
	for _, f32 := range []bool{false, true} {
		m := Identity(6)
		if f32 {
			m.Narrow32()
		}
		data := encodeCSR(t, m, f32)
		// Truncations at every byte boundary must error, never panic.
		for n := 0; n < len(data); n++ {
			for name, br := range csrReaders(data[:n]) {
				if _, err := ReadCSR(br, f32); err == nil {
					t.Fatalf("%s f32=%v: truncation to %d bytes accepted", name, f32, n)
				}
			}
		}
		// Out-of-range column index.
		bad := Identity(2)
		if f32 {
			bad.Narrow32()
		}
		bad.Col[1] = 7
		if _, err := ReadCSR(binio.NewBytesReader(encodeCSR(t, bad, f32)), f32); err == nil {
			t.Fatal("out-of-range column accepted")
		}
	}
}

func TestCSRValidate(t *testing.T) {
	ok := Identity(3)
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]*CSR{
		"short rowptr":   {RowPtr: []int{0, 1}, Col: []int{0}, Val: []float64{1}, Rows: 2, Cols: 2},
		"decreasing ptr": {RowPtr: []int{0, 1, 0}, Col: []int{0}, Val: []float64{1}, Rows: 2, Cols: 2},
		"len mismatch":   {RowPtr: []int{0, 1, 1}, Col: []int{0}, Val: nil, Rows: 2, Cols: 2},
		"dup column":     {RowPtr: []int{0, 2}, Col: []int{1, 1}, Val: []float64{1, 2}, Rows: 1, Cols: 2},
	}
	for name, m := range cases {
		if err := m.Validate(); err == nil {
			t.Fatalf("%s passed validation", name)
		}
	}
}

func TestPermutationCodecRoundTrip(t *testing.T) {
	p, err := NewPermutation([]int{3, 1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Encode(binio.NewWriter(&buf)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPermutation(binio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, p)
	}
}

func TestReadPermutationRejectsNonBijection(t *testing.T) {
	p := &Permutation{NewToOld: []int{0, 0, 1}}
	var buf bytes.Buffer
	if err := p.Encode(binio.NewWriter(&buf)); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPermutation(binio.NewReader(&buf)); err == nil {
		t.Fatal("repeated node accepted")
	}
}
