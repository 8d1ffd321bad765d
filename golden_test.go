package mogul

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// goldenProbe is the out-of-sample query the golden tests ask.
var goldenProbe = Vector{2.9, -2.1, 0.1, 0.9}

// goldenSaver is what the golden tests need of a loaded engine.
type goldenSaver interface {
	Retriever
	Precision() Precision
	SaveAligned(w io.Writer, align int) error
}

func readGolden(t *testing.T, file string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", file))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// goldenSave re-saves a loaded golden engine in the mode its file was
// written in.
func goldenSave(t *testing.T, r Retriever, aligned bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	var err error
	if aligned {
		err = r.(goldenSaver).SaveAligned(&buf, 4096)
	} else {
		err = r.Save(&buf)
	}
	if err != nil {
		t.Fatalf("re-save: %v", err)
	}
	return buf.Bytes()
}

// TestGoldenContainers pins the MOGULEMR / MOGULSPC readers and writers
// against committed files (testdata/golden; n = 64 + 3 inserted, d = 4,
// one base and two delta-era tombstones, so delta columns / attachments
// and both tombstone kinds are present): the v1/v2 spectral files were
// written by the commit that preceded the shared engine lifecycle, the
// v3 EMR files by the commit that introduced the format, from the
// recipe that reproduces the v1/v2 EMR files byte for byte at their
// commit: BuildEMR over the first 64 stored points of emr_v1_f64.bin
// with Options{Alpha: 0.99, Seed: 7} (Precision: F32 for the f32 file)
// and EMROptions{NumAnchors: 24, NumNearestAnchors: 3}, Insert of its
// points 64..66, Delete of 5, 40, 65, and the recorded build timings
// (the one wall-clock field) copied over. Save → Load →
// Save within one binary cannot notice a reader and a writer drifting
// together; these bytes are the fixed point. Each file must load by
// stream and from memory, re-save byte-identically in the mode that
// wrote it, and answer bit-identically through both loaders.
func TestGoldenContainers(t *testing.T) {
	cases := []struct {
		file    string
		aligned bool
		prec    Precision
	}{
		{"emr_v3_f64.bin", false, F64},
		{"emr_v3_f32.bin", false, F32},
		{"emr_v3_f64_aligned4096.bin", true, F64},
		{"spectral_v1_f64.bin", false, F64},
		{"spectral_v2_f32.bin", false, F32},
		{"spectral_v2_f64_aligned4096.bin", true, F64},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			want := readGolden(t, tc.file)
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
				if got := r.(goldenSaver).Precision(); got != tc.prec {
					t.Fatalf("%s: precision %v, want %v", name, got, tc.prec)
				}
				if d := r.Delta(); d.BaseItems != 64 || d.DeltaItems != 2 || d.Tombstones != 3 {
					t.Fatalf("%s: delta %+v, want 64 base / 2 delta / 3 tombstones", name, d)
				}
				if got := goldenSave(t, r, tc.aligned); !bytes.Equal(got, want) {
					t.Fatalf("%s: re-saved container differs from the golden file (%d vs %d bytes)", name, len(got), len(want))
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
			a, err := streamed.TopKVector(goldenProbe, 10)
			if err != nil {
				t.Fatal(err)
			}
			b, err := mapped.TopKVector(goldenProbe, 10)
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

// TestGoldenEMRLegacy: the version-1/2 MOGULEMR files (LU factors in
// EGRM, written before the engine held the gram inverse) still load by
// stream and from memory, agree with the version-3 golden of the same
// engine — same ids in order, scores within emrBaselineTol — and
// re-save as a version-3 image that is itself a fixed point.
func TestGoldenEMRLegacy(t *testing.T) {
	for _, tc := range []struct {
		file, v3 string
		aligned  bool
		prec     Precision
	}{
		{"emr_v1_f64.bin", "emr_v3_f64.bin", false, F64},
		{"emr_v2_f32.bin", "emr_v3_f32.bin", false, F32},
		{"emr_v2_f64_aligned4096.bin", "emr_v3_f64_aligned4096.bin", true, F64},
	} {
		t.Run(tc.file, func(t *testing.T) {
			old := readGolden(t, tc.file)
			ref, err := LoadEMRBytes(readGolden(t, tc.v3))
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := Load(bytes.NewReader(old))
			if err != nil {
				t.Fatalf("stream load: %v", err)
			}
			mapped, err := LoadEMRBytes(old)
			if err != nil {
				t.Fatalf("bytes load: %v", err)
			}
			var resaved []byte
			for name, r := range map[string]Retriever{"stream": streamed, "bytes": mapped} {
				if got := r.(goldenSaver).Precision(); got != tc.prec {
					t.Fatalf("%s: precision %v, want %v", name, got, tc.prec)
				}
				if d := r.Delta(); d.BaseItems != 64 || d.DeltaItems != 2 || d.Tombstones != 3 {
					t.Fatalf("%s: delta %+v, want 64 base / 2 delta / 3 tombstones", name, d)
				}
				for _, q := range []int{0, 17, 64, 66} {
					got, err := r.TopK(q, 10)
					if err != nil {
						t.Fatal(err)
					}
					want, err := ref.TopK(q, 10)
					if err != nil {
						t.Fatal(err)
					}
					closeResults(t, name, got, want, emrBaselineTol)
				}
				got, err := r.TopKVector(goldenProbe, 10)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.TopKVector(goldenProbe, 10)
				if err != nil {
					t.Fatal(err)
				}
				closeResults(t, name, got, want, emrBaselineTol)

				image := goldenSave(t, r, tc.aligned)
				if resaved != nil && !bytes.Equal(image, resaved) {
					t.Fatalf("%s: the two loaders re-save different version-3 images", name)
				}
				resaved = image
			}
			if v := resaved[len(emrMagic)]; v != emrFormatVersionInverse {
				t.Fatalf("legacy file re-saved as version %d, want %d", v, emrFormatVersionInverse)
			}
			again, err := LoadEMR(bytes.NewReader(resaved))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(goldenSave(t, again, tc.aligned), resaved) {
				t.Fatal("the version-3 image of a legacy file is not a fixed point")
			}
		})
	}
}
