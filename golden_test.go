package mogul

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mogul/internal/core"
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

// stampVersion rewrites a container image's format version and
// recomputes its trailing CRC.
func stampVersion(image []byte, version uint32) []byte {
	out := bytes.Clone(image)
	binary.LittleEndian.PutUint32(out[8:], version)
	return restamp(out)
}

var goldenEngineDelta = DeltaStats{BaseItems: 64, DeltaItems: 2, Tombstones: 3}

// goldenContainers lists the committed containers of the current
// formats: each file, whether it was saved aligned, its precision and
// delta, the queries asked of it (base items, delta items) and its
// tombstoned ids.
var goldenContainers = []struct {
	file    string
	aligned bool
	prec    Precision
	delta   DeltaStats
	queries []int
	dead    []int
}{
	{"emr_v3_f64.bin", false, F64, goldenEngineDelta, []int{0, 17, 64, 66}, []int{5, 40, 65}},
	{"emr_v3_f32.bin", false, F32, goldenEngineDelta, []int{0, 17, 64, 66}, []int{5, 40, 65}},
	{"emr_v3_f64_aligned4096.bin", true, F64, goldenEngineDelta, []int{0, 17, 64, 66}, []int{5, 40, 65}},
	{"spectral_v1_f64.bin", false, F64, goldenEngineDelta, []int{0, 17, 64, 66}, []int{5, 40, 65}},
	{"spectral_v2_f32.bin", false, F32, goldenEngineDelta, []int{0, 17, 64, 66}, []int{5, 40, 65}},
	{"spectral_v2_f64_aligned4096.bin", true, F64, goldenEngineDelta, []int{0, 17, 64, 66}, []int{5, 40, 65}},
	{"idx_v3_f64.bin", false, F64, goldenEngineDelta, []int{0, 17, 64, 66}, []int{5, 40, 65}},
	{"idx_v4_f32.bin", false, F32, goldenEngineDelta, []int{0, 17, 64, 66}, []int{5, 40, 65}},
	{"idx_v4_f64_aligned4096.bin", true, F64, DeltaStats{BaseItems: 512, DeltaItems: 2, Tombstones: 3}, []int{0, 17, 512, 514}, []int{5, 40, 513}},
	{"shd_v1.bin", false, F64, DeltaStats{BaseItems: 96, DeltaItems: 1, Tombstones: 1}, []int{0, 17, 95, 96}, []int{5}},
}

// TestGoldenContainers pins the readers and writers of all four
// containers against committed files (testdata/golden). Save → Load →
// Save within one binary cannot notice a reader and a writer drifting
// together; these bytes are the fixed point. Each file must load by
// stream and from memory, re-save byte-identically in the mode that
// wrote it, and answer bit-identically through both loaders.
//
// EMR / spectral (n = 64 + 3 inserted, d = 4, one base and two
// delta-era tombstones, so delta columns / attachments and both
// tombstone kinds are present): the v1/v2 spectral files were written by
// the commit that preceded the shared engine lifecycle, the v3 EMR files
// by the commit that introduced the format, from the recipe that
// reproduces the v1/v2 EMR files byte for byte at their commit: BuildEMR
// over the first 64 stored points of emr_v1_f64.bin with Options{Alpha:
// 0.99, Seed: 7} (Precision: F32 for the f32 file) and
// EMROptions{NumAnchors: 24, NumNearestAnchors: 3}, Insert of its points
// 64..66, Delete of 5, 40, 65, and the recorded build timings (the one
// wall-clock field) copied over.
//
// MOGULIDX / MOGULSHD: written by the commit that preceded the move of
// core's persistence onto the shared frame. Points are pts[i] =
// centre[i%4] + 0.5·N(0,1) per coordinate drawn in order from
// rand.New(rand.NewSource(11)), centres (3,-2,0,1), (-3,2,0,-1),
// (0,3,2,0), (-2,-3,-1,1); every build uses Options{Alpha: 0.99, Seed:
// 7}. idx_v3_f64 and idx_v4_f32 (Precision: F32): Build over pts[:64],
// Insert pts[64:67], Delete 5, 40, 65, Save. idx_v4_f64_aligned4096: the
// same over pts[:512] (+ pts[512:515], Delete 5, 40, 513) and
// SaveAligned(4096) — n = 512 makes the LAYT permutation 4096 bytes, so
// a frame that wrongly pads it changes the file. shd_v1: BuildSharded
// over pts[:96] with ShardOptions{Shards: 2, Partitioner:
// PartitionKMeans}, Insert pts[96], Delete 5, Save.
func TestGoldenContainers(t *testing.T) {
	for _, tc := range goldenContainers {
		t.Run(tc.file, func(t *testing.T) {
			want := readGolden(t, tc.file)
			streamed, err := Load(bytes.NewReader(want))
			if err != nil {
				t.Fatalf("stream load: %v", err)
			}
			mapped, err := tryLoadMapped(want)
			if err != nil {
				t.Fatalf("bytes load: %v", err)
			}
			for name, r := range map[string]Retriever{"stream": streamed, "bytes": mapped} {
				if p, ok := r.(goldenSaver); ok && p.Precision() != tc.prec {
					t.Fatalf("%s: precision %v, want %v", name, p.Precision(), tc.prec)
				}
				if d := r.Delta(); d != tc.delta {
					t.Fatalf("%s: delta %+v, want %+v", name, d, tc.delta)
				}
				if got := goldenSave(t, r, tc.aligned); !bytes.Equal(got, want) {
					t.Fatalf("%s: re-saved container differs from the golden file (%d vs %d bytes)", name, len(got), len(want))
				}
			}
			sameAnswers(t, tc.file, streamed, mapped, tc.queries)
			for _, dead := range tc.dead {
				if _, err := streamed.TopK(dead, 3); err == nil {
					t.Fatalf("tombstoned id %d accepted as a query", dead)
				}
			}
		})
	}
}

// sameAnswers: two engines answer the in-database queries and the
// golden out-of-sample probe bit-identically.
func sameAnswers(t *testing.T, label string, a, b Retriever, queries []int) {
	t.Helper()
	for _, q := range queries {
		ra, err := a.TopK(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.TopK(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, label, rb, ra)
	}
	ra, err := a.TopKVector(goldenProbe, 10)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.TopKVector(goldenProbe, 10)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, label, rb, ra)
}

// TestGoldenAnswers pins query arithmetic across commits: every golden
// container answers TopK(q, 10) for its queries and TopKVector(goldenProbe,
// 10) with the ids and the score bits committed in answers.txt. The
// other golden tests compare two paths inside one binary, so a drift in
// the query arithmetic itself would pass them; these answers were
// recorded before the storage-width kernel pairs were folded into one
// generic body each and are never regenerated to make a change pass.
func TestGoldenAnswers(t *testing.T) {
	got := strings.Split(goldenAnswers(t), "\n")
	want := strings.Split(string(readGolden(t, "answers.txt")), "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("answers.txt line %d:\n got: %s\nwant: %s", i+1, g, w)
		}
	}
}

// goldenAnswers renders the answers of every golden container, one line
// per query: file, query, then id:score-bits for each result in order.
func goldenAnswers(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	line := func(file, query string, res []Result) {
		fmt.Fprintf(&b, "%s %s", file, query)
		for _, r := range res {
			fmt.Fprintf(&b, " %d:%016x", r.Node, math.Float64bits(r.Score))
		}
		b.WriteByte('\n')
	}
	for _, tc := range goldenContainers {
		r, err := Load(bytes.NewReader(readGolden(t, tc.file)))
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		for _, q := range tc.queries {
			res, err := r.TopK(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			line(tc.file, fmt.Sprint("q=", q), res)
		}
		res, err := r.TopKVector(goldenProbe, 10)
		if err != nil {
			t.Fatal(err)
		}
		line(tc.file, "probe", res)
	}
	return b.String()
}

// insertSequenceIndex is the recipe of idx_v3_f64_inserts200.bin: a graph
// index over 320 points of a 32-class mixture, build timings cleared, then
// 200 inserts with a base delete after every tenth and a delta delete
// after every fiftieth. Each insert is attached through the out-of-sample
// surrogate selection, so the saved probes and weights pin its order.
func insertSequenceIndex(t *testing.T) *Index {
	t.Helper()
	pts := NewMixture(MixtureConfig{N: 520, Classes: 32, Dim: 4, WithinStd: 0.3, Separation: 2.5, Seed: 21}).Points
	ix, err := Build(pts[:320], Options{Alpha: 0.99, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ix.core.ClearTimings()
	for i := 0; i < 200; i++ {
		id, err := ix.Insert(pts[320+i])
		if err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			if err := ix.Delete(i / 10 * 13); err != nil {
				t.Fatal(err)
			}
		}
		if i%50 == 49 {
			if err := ix.Delete(id - 5); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ix
}

// TestGoldenInsertSequence: the insert-sequence recipe saves exactly the
// bytes the parent of the partial cluster selection wrote (PR 25), and
// that file loads and re-saves as itself.
func TestGoldenInsertSequence(t *testing.T) {
	t.Parallel()
	want := readGolden(t, "idx_v3_f64_inserts200.bin")
	var buf bytes.Buffer
	if err := insertSequenceIndex(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("insert sequence saves %d bytes that differ from the golden's %d", buf.Len(), len(want))
	}
	loaded, err := Load(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if d := loaded.Delta(); d != (DeltaStats{BaseItems: 320, DeltaItems: 196, Tombstones: 24}) {
		t.Fatalf("delta %+v", d)
	}
	if got := goldenSave(t, loaded, false); !bytes.Equal(got, want) {
		t.Fatal("the loaded golden does not re-save as itself")
	}
}

// TestGoldenEMRRebuild: a fresh EMR build from the recipe of the v3
// goldens (see TestGoldenContainers) saves exactly their bytes, so the
// k-means anchors, the anchor attach and the gram inverse of a new build
// are pinned across commits, not only the codec. The recorded build
// timings are the one field a rebuild cannot reproduce; they are copied
// from the golden before the save.
func TestGoldenEMRRebuild(t *testing.T) {
	src, err := LoadEMRBytes(readGolden(t, "emr_v1_f64.bin"))
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]Vector, src.st.numPoints())
	for i := range pts {
		pts[i] = src.st.pointVec(i)
	}
	for _, tc := range []struct {
		file string
		prec Precision
	}{{"emr_v3_f64.bin", F64}, {"emr_v3_f32.bin", F32}} {
		t.Run(tc.file, func(t *testing.T) {
			want := readGolden(t, tc.file)
			golden, err := LoadEMRBytes(want)
			if err != nil {
				t.Fatal(err)
			}
			e, err := BuildEMR(pts[:64], Options{Alpha: 0.99, Seed: 7, Precision: tc.prec},
				EMROptions{NumAnchors: 24, NumNearestAnchors: 3})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pts[64:67] {
				if _, err := e.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
			for _, id := range []int{5, 40, 65} {
				if err := e.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			e.st.stats.ClusterTime = golden.st.stats.ClusterTime
			e.st.stats.FactorTime = golden.st.stats.FactorTime
			if got := goldenSave(t, e, false); !bytes.Equal(got, want) {
				t.Fatalf("rebuild saves %d bytes that differ from the golden's %d", len(got), len(want))
			}
		})
	}
}

// TestGoldenIndexV2: there is no version-2 writer any more, so the
// golden is a static version-3 save (the idx_v3_f64 build before its
// inserts and deletes) restamped to version 2. It loads by stream and
// from memory, answers like the version-3 image it was cut from, and
// re-saves as exactly that image.
func TestGoldenIndexV2(t *testing.T) {
	v2 := readGolden(t, "idx_v2_f64.bin")
	if v := binary.LittleEndian.Uint32(v2[8:]); v != 2 {
		t.Fatalf("golden carries version %d, want 2", v)
	}
	v3 := stampVersion(v2, core.FormatVersion)
	ref, err := Load(bytes.NewReader(v3))
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := Load(bytes.NewReader(v2))
	if err != nil {
		t.Fatalf("stream load: %v", err)
	}
	mapped, err := tryLoadMapped(v2)
	if err != nil {
		t.Fatalf("bytes load: %v", err)
	}
	for name, r := range map[string]Retriever{"stream": streamed, "bytes": mapped} {
		if d := r.Delta(); d != (DeltaStats{BaseItems: 64}) {
			t.Fatalf("%s: delta %+v, want a static 64-item index", name, d)
		}
		if got := goldenSave(t, r, false); !bytes.Equal(got, v3) {
			t.Fatalf("%s: re-save is not the version-3 image the golden was cut from", name)
		}
		sameAnswers(t, name, r, ref, []int{0, 17, 63})
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
