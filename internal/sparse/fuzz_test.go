package sparse

import (
	"bytes"
	"testing"

	"mogul/internal/binio"
)

// Fuzz harnesses for the sparse-matrix leaf codecs: arbitrary input
// must produce an error or a structurally valid value — never a panic,
// never an unvalidated matrix. Seed corpus committed here; explore
// with `go test -fuzz FuzzReadCSR ./internal/sparse`.

// fuzzCSR is the seed matrix of FuzzReadCSR.
func fuzzCSR(tb testing.TB) *CSR {
	tb.Helper()
	m, err := NewFromCoords(4, 4, []Coord{
		{Row: 0, Col: 1, Val: 0.5}, {Row: 1, Col: 0, Val: 0.5},
		{Row: 2, Col: 3, Val: 1.25}, {Row: 3, Col: 2, Val: 1.25},
		{Row: 0, Col: 3, Val: 2}, {Row: 3, Col: 0, Val: 2},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// FuzzReadCSR drives the one CSR decoder in both precisions and both
// reader modes (streamed copy, in-memory views).
func FuzzReadCSR(f *testing.F) {
	m := fuzzCSR(f)
	for _, f32 := range []bool{false, true} {
		if f32 {
			m.Narrow32()
		}
		valid := encodeCSR(f, m, f32)
		f.Add(valid, f32)
		f.Add(valid[:len(valid)/2], f32)
		huge := append([]byte(nil), valid...)
		huge[0] = 0xFF // giant row count
		f.Add(huge, f32)
	}
	f.Add([]byte{}, false)

	f.Fuzz(func(t *testing.T, data []byte, f32 bool) {
		for name, br := range csrReaders(data) {
			m, err := ReadCSR(br, f32)
			if err != nil {
				continue
			}
			// Whatever was accepted must satisfy the CSR invariants and
			// round-trip exactly.
			if err := m.Validate(); err != nil {
				t.Fatalf("%s: accepted matrix fails validation: %v", name, err)
			}
			back, err := ReadCSR(binio.NewBytesReader(encodeCSR(t, m, f32)), f32)
			if err != nil {
				t.Fatalf("%s: re-decode: %v", name, err)
			}
			if back.Rows != m.Rows || back.Cols != m.Cols || back.NNZ() != m.NNZ() {
				t.Fatalf("%s: round trip changed shape: %dx%d/%d vs %dx%d/%d", name,
					m.Rows, m.Cols, m.NNZ(), back.Rows, back.Cols, back.NNZ())
			}
		}
	})
}

func FuzzReadPermutation(f *testing.F) {
	p, err := NewPermutation([]int{2, 0, 3, 1})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Encode(binio.NewWriter(&buf)); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:3])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPermutation(binio.NewBytesReader(data))
		if err != nil {
			return
		}
		// An accepted permutation must be a bijection on [0, n).
		n := p.Len()
		seen := make([]bool, n)
		for pos := 0; pos < n; pos++ {
			old := p.NewToOld[pos]
			if old < 0 || old >= n || seen[old] {
				t.Fatalf("accepted permutation is not a bijection at %d", pos)
			}
			seen[old] = true
			if p.OldToNew[old] != pos {
				t.Fatalf("inverse mismatch at %d", pos)
			}
		}
	})
}
