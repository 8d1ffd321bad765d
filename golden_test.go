package mogul

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenContainers pins the MOGULEMR / MOGULSPC readers and writers
// against files written by the commit that preceded the shared engine
// lifecycle (testdata/golden; n = 64 + 3 inserted, d = 4, one base and
// one delta tombstone each, so delta columns / attachments and both
// tombstone kinds are present). Save → Load → Save within one binary
// cannot notice a reader and a writer drifting together; these bytes
// are the fixed point. Each file must load by stream and from memory,
// re-save byte-identically in the mode that wrote it, and answer
// bit-identically through both loaders.
func TestGoldenContainers(t *testing.T) {
	type saver interface {
		Retriever
		SaveAligned(w io.Writer, align int) error
	}
	cases := []struct {
		file    string
		aligned bool
		prec    Precision
	}{
		{"emr_v1_f64.bin", false, F64},
		{"emr_v2_f32.bin", false, F32},
		{"emr_v2_f64_aligned4096.bin", true, F64},
		{"spectral_v1_f64.bin", false, F64},
		{"spectral_v2_f32.bin", false, F32},
		{"spectral_v2_f64_aligned4096.bin", true, F64},
	}
	probe := Vector{2.9, -2.1, 0.1, 0.9}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := Load(bytes.NewReader(want))
			if err != nil {
				t.Fatalf("stream load: %v", err)
			}
			var mapped Retriever
			if bytes.HasPrefix(want, []byte(emrMagic)) {
				mapped, err = LoadEMRBytes(want)
			} else {
				mapped, err = LoadSpectralBytes(want)
			}
			if err != nil {
				t.Fatalf("bytes load: %v", err)
			}
			for name, r := range map[string]Retriever{"stream": streamed, "bytes": mapped} {
				s := r.(saver)
				if got := s.(interface{ Precision() Precision }).Precision(); got != tc.prec {
					t.Fatalf("%s: precision %v, want %v", name, got, tc.prec)
				}
				if d := r.Delta(); d.BaseItems != 64 || d.DeltaItems != 2 || d.Tombstones != 3 {
					t.Fatalf("%s: delta %+v, want 64 base / 2 delta / 3 tombstones", name, d)
				}
				var buf bytes.Buffer
				if tc.aligned {
					err = s.SaveAligned(&buf, 4096)
				} else {
					err = s.Save(&buf)
				}
				if err != nil {
					t.Fatalf("%s: re-save: %v", name, err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("%s: re-saved container differs from the golden file (%d vs %d bytes)", name, buf.Len(), len(want))
				}
			}
			// Base item, delta item, and an out-of-sample vector.
			for _, q := range []int{0, 17, 64, 66} {
				a, err := streamed.TopK(q, 10)
				if err != nil {
					t.Fatal(err)
				}
				b, err := mapped.TopK(q, 10)
				if err != nil {
					t.Fatal(err)
				}
				sameResults(t, tc.file, b, a)
			}
			a, err := streamed.TopKVector(probe, 10)
			if err != nil {
				t.Fatal(err)
			}
			b, err := mapped.TopKVector(probe, 10)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, tc.file, b, a)
			for _, dead := range []int{5, 40, 65} {
				if _, err := streamed.TopK(dead, 3); err == nil {
					t.Fatalf("tombstoned id %d accepted as a query", dead)
				}
			}
		})
	}
}
