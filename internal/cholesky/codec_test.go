package cholesky

import (
	"bytes"
	"reflect"
	"testing"

	"mogul/internal/binio"
	"mogul/internal/sparse"
)

// testFactor factorizes a small SPD matrix so codec tests exercise a
// real factor rather than a hand-built one.
func testFactor(t *testing.T, complete bool) *Factor {
	t.Helper()
	// Diagonally dominant pentadiagonal matrix, clearly SPD.
	var entries []sparse.Coord
	n := 12
	for i := 0; i < n; i++ {
		entries = append(entries, sparse.Coord{Row: i, Col: i, Val: 4})
		if i+1 < n {
			entries = append(entries, sparse.Coord{Row: i, Col: i + 1, Val: -1}, sparse.Coord{Row: i + 1, Col: i, Val: -1})
		}
		if i+3 < n {
			entries = append(entries, sparse.Coord{Row: i, Col: i + 3, Val: -0.5}, sparse.Coord{Row: i + 3, Col: i, Val: -0.5})
		}
	}
	w, err := sparse.NewFromCoords(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	var f *Factor
	if complete {
		f, err = CompleteLDL(w, 0)
	} else {
		f, err = IncompleteLDL(w, 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// encodeFactor returns the factor's record in the given precision.
func encodeFactor(t *testing.T, f *Factor, f32 bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Encode(binio.NewWriter(&buf), f32); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// factorReaders opens a record both ways the containers do: streamed
// and as an in-memory image (zero-copy views).
func factorReaders(data []byte) map[string]*binio.Reader {
	return map[string]*binio.Reader{
		"stream": binio.NewReader(bytes.NewReader(data)),
		"bytes":  binio.NewBytesReader(data),
	}
}

func TestFactorCodecRoundTrip(t *testing.T) {
	for _, complete := range []bool{false, true} {
		for _, f32 := range []bool{false, true} {
			f := testFactor(t, complete)
			if f32 {
				f.Narrow32()
			}
			for name, br := range factorReaders(encodeFactor(t, f, f32)) {
				got, err := ReadFactor(br, f32)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, f) {
					t.Fatalf("%s: round trip mismatch (complete=%v f32=%v)", name, complete, f32)
				}
				// The loaded factor must solve identically, bit for bit.
				q := make([]float64, f.N)
				q[3] = 1
				a, b := f.ForwardSolve(q), got.ForwardSolve(q)
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("%s: solve differs at %d: %g vs %g", name, i, a[i], b[i])
					}
				}
			}
			// A factor only encodes in the precision it stores.
			if err := f.Encode(binio.NewWriter(&bytes.Buffer{}), !f32); err == nil {
				t.Fatalf("f32=%v factor encoded as f32=%v", f32, !f32)
			}
		}
	}
}

func TestReadFactorRejectsCorruption(t *testing.T) {
	for _, f32 := range []bool{false, true} {
		f := testFactor(t, false)
		if f32 {
			f.Narrow32()
		}
		data := encodeFactor(t, f, f32)
		for n := 0; n < len(data); n += 7 {
			for name, br := range factorReaders(data[:n]) {
				if _, err := ReadFactor(br, f32); err == nil {
					t.Fatalf("%s f32=%v: truncation to %d bytes accepted", name, f32, n)
				}
			}
		}
		// An upper-triangular (row <= column) entry must be rejected.
		if f.NNZ() == 0 {
			t.Fatal("test factor unexpectedly diagonal")
		}
		f.RowIdx[0] = 0
		if _, err := ReadFactor(binio.NewBytesReader(encodeFactor(t, f, f32)), f32); err == nil {
			t.Fatal("non-lower-triangular entry accepted")
		}
	}
}

func TestFactorValidate(t *testing.T) {
	if err := testFactor(t, true).Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]*Factor{
		"short colptr": {N: 2, ColPtr: []int{0, 0}, D: []float64{1, 1}},
		"short D":      {N: 2, ColPtr: []int{0, 0, 0}, D: []float64{1}},
		"bad span":     {N: 1, ColPtr: []int{0, 3}, D: []float64{1}},
		"neg clamped":  {N: 1, ColPtr: []int{0, 0}, D: []float64{1}, Clamped: -1},
	}
	for name, f := range cases {
		if name == "neg clamped" {
			// Validate does not police Clamped (ReadFactor does); make
			// sure the reader rejects it instead.
			if _, err := ReadFactor(binio.NewBytesReader(encodeFactor(t, f, false)), false); err == nil {
				t.Fatal("negative clamp count accepted")
			}
			continue
		}
		if err := f.Validate(); err == nil {
			t.Fatalf("%s passed validation", name)
		}
	}
}
