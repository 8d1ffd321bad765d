package mogul

// Quality and persistence guarantees of the mixed-precision storage
// mode (Options.Precision = F32) across all three in-process engines.
// The acceptance property: narrowing the bulk arrays to float32 moves
// top-10 membership against the float64 engine by at most half a
// percent, at serving scale. The persistence half pins the f32
// containers: save -> load -> save is byte-stable, the aligned image
// loads through both the streaming (CRC-checked) and the zero-copy
// bytes path with bit-identical answers, and loaded engines keep
// their precision across Compact.

import (
	"bytes"
	"math"
	"testing"
)

// f32Recall returns mean recall@k of engine b against engine a over
// the query items. The metric is tie-aware: when the reference
// engine's scores are tied at the top-k boundary (common at scale —
// exchangeable same-cluster items land within 1e-9 relative of each
// other), the top-k set is not unique, so any returned item whose
// reference score sits within 1e-6 relative of the k-th best counts
// as a member.
func f32Recall(t *testing.T, a, b Retriever, queries []int, k int) float64 {
	t.Helper()
	var total float64
	for _, q := range queries {
		// 3k reference results resolve boundary ties without ranking
		// the whole database.
		want, err := a.TopK(q, 3*k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) > k {
			boundary := want[k-1].Score
			cut := boundary - 1e-6*math.Abs(boundary)
			for len(want) > k && want[len(want)-1].Score < cut {
				want = want[:len(want)-1]
			}
		}
		ref := make(map[int]bool, len(want))
		for _, r := range want {
			ref[r.Node] = true
		}
		hits := 0
		for _, r := range got {
			if ref[r.Node] {
				hits++
			}
		}
		total += float64(hits) / float64(k)
	}
	return total / float64(len(queries))
}

// f32EnginePairs builds each backend over the same points in both
// precisions. The builds are deterministic for a fixed seed and run
// entirely in float64 either way — narrowing happens once at the end —
// so any ranking difference is rounding of the stored arrays, nothing
// else.
func f32EnginePairs(t *testing.T, points []Vector, opts Options) map[string][2]Retriever {
	t.Helper()
	pairs := map[string][2]Retriever{}
	build := func(name string, mk func(o Options) (Retriever, error)) {
		f64opts, f32opts := opts, opts
		f64opts.Precision = F64
		f32opts.Precision = F32
		a, err := mk(f64opts)
		if err != nil {
			t.Fatalf("%s f64 build: %v", name, err)
		}
		b, err := mk(f32opts)
		if err != nil {
			t.Fatalf("%s f32 build: %v", name, err)
		}
		pairs[name] = [2]Retriever{a, b}
	}
	build("core", func(o Options) (Retriever, error) { return Build(points, o) })
	build("emr", func(o Options) (Retriever, error) {
		return BuildEMR(points, o, EMROptions{})
	})
	build("spectral", func(o Options) (Retriever, error) {
		return BuildSpectral(points, o, SpectralOptions{Rank: 32})
	})
	return pairs
}

// TestF32SaveIsSmaller: F32 is a capacity mode — what it buys is a
// smaller file (and the same arrays resident), so every engine's F32
// Save must come in well under its F64 one. Measured at this shape:
// core 0.634, emr 0.601, spectral 0.546 of the F64 bytes; an engine
// that wrote its bulk arrays at full width would read 1.0.
func TestF32SaveIsSmaller(t *testing.T) {
	t.Parallel()
	ds := NewMixture(MixtureConfig{N: 3000, Classes: 8, Dim: 32, WithinStd: 0.3, Separation: 3, Seed: 17})
	for name, pair := range f32EnginePairs(t, ds.Points, Options{}) {
		t.Run(name, func(t *testing.T) {
			var size [2]int
			for i, r := range pair {
				var buf bytes.Buffer
				if err := r.Save(&buf); err != nil {
					t.Fatal(err)
				}
				size[i] = buf.Len()
			}
			if ratio := float64(size[1]) / float64(size[0]); ratio > 0.70 {
				t.Errorf("F32 save is %d bytes, F64 %d (%.3f), want <= 0.70", size[1], size[0], ratio)
			}
		})
	}
}

// TestF32RecallSmall: the cheap always-on version of the acceptance
// property, plus the precision introspection surface.
func TestF32RecallSmall(t *testing.T) {
	ds := NewMixture(MixtureConfig{N: 2000, Classes: 8, Dim: 12, WithinStd: 0.3, Separation: 3, Seed: 17})
	queries := sampleQueries(ds.Len(), 97)
	for name, pair := range f32EnginePairs(t, ds.Points, Options{Seed: 17, GraphK: 6}) {
		type precise interface{ Precision() Precision }
		if got := pair[0].(precise).Precision(); got != F64 {
			t.Fatalf("%s: f64 engine reports precision %d", name, got)
		}
		if got := pair[1].(precise).Precision(); got != F32 {
			t.Fatalf("%s: f32 engine reports precision %d", name, got)
		}
		if r := f32Recall(t, pair[0], pair[1], queries, 10); r < 0.98 {
			t.Errorf("%s: recall@10 of f32 vs f64 = %.4f, want >= 0.98", name, r)
		}
	}
}

// TestF32RecallAtScale: the acceptance property at n = 10^5 — storage
// narrowing costs at most half a percent of top-10 membership on every
// backend.
func TestF32RecallAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 3 backends x 2 precisions at n = 100000")
	}
	ds := NewMixture(MixtureConfig{N: 100000, Classes: 40, Dim: 8, WithinStd: 0.25, Separation: 4, Seed: 41})
	queries := sampleQueries(ds.Len(), 2503)
	opts := Options{Seed: 41, GraphK: 6, ApproximateGraph: true}
	for name, pair := range f32EnginePairs(t, ds.Points, opts) {
		if r := f32Recall(t, pair[0], pair[1], queries, 10); r < 0.995 {
			t.Errorf("%s: recall@10 of f32 vs f64 = %.4f, want >= 0.995", name, r)
		}
	}
}

// TestF32EMRSerializationRoundTrip proves the v2 MOGULEMR container
// round-trips an f32 engine with bit-identical query behaviour through
// the streaming reader, the aligned streaming reader, and the
// zero-copy bytes reader, and that a re-save reproduces the file byte
// for byte.
func TestF32EMRSerializationRoundTrip(t *testing.T) {
	ds := NewMixture(MixtureConfig{N: 300, Classes: 6, Dim: 8, WithinStd: 0.3, Separation: 3, Seed: 23})
	orig, err := BuildEMR(ds.Points[:280], Options{Seed: 23, Precision: F32}, EMROptions{NumAnchors: 24, NumNearestAnchors: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ds.Points[280:] {
		if _, err := orig.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := orig.Delete(7); err != nil {
		t.Fatal(err)
	}
	if err := orig.Delete(281); err != nil {
		t.Fatal(err)
	}
	checkF32RoundTrip(t, "emr", orig, func(w *bytes.Buffer) error { return orig.Save(w) },
		func(w *bytes.Buffer) error { return orig.SaveAligned(w, 4096) },
		func(b []byte) (Retriever, error) { return LoadEMR(bytes.NewReader(b)) },
		func(b []byte) (Retriever, error) { return LoadEMRBytes(b) })
}

// TestF32SpectralSerializationRoundTrip is the same property for the
// v2 MOGULSPC container.
func TestF32SpectralSerializationRoundTrip(t *testing.T) {
	ds := NewMixture(MixtureConfig{N: 160, Classes: 6, Dim: 8, WithinStd: 0.35, Separation: 2.5, Seed: 29})
	orig, err := BuildSpectral(ds.Points[:140], Options{Seed: 29, GraphK: 6, Precision: F32}, SpectralOptions{Rank: 24, AttachK: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ds.Points[140:] {
		if _, err := orig.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := orig.Delete(11); err != nil {
		t.Fatal(err)
	}
	if err := orig.Delete(141); err != nil {
		t.Fatal(err)
	}
	checkF32RoundTrip(t, "spectral", orig, func(w *bytes.Buffer) error { return orig.Save(w) },
		func(w *bytes.Buffer) error { return orig.SaveAligned(w, 4096) },
		func(b []byte) (Retriever, error) { return LoadSpectral(bytes.NewReader(b)) },
		func(b []byte) (Retriever, error) { return LoadSpectralBytes(b) })
}

// checkF32RoundTrip runs the shared container property: the plain save
// loads via the stream reader, the aligned save loads via BOTH the
// stream reader (its CRC covers the padding) and the bytes reader;
// every load answers bit-identically to the original, keeps Precision
// F32 (also across a Compact), and re-saving the loaded engine
// reproduces the plain file byte for byte.
func checkF32RoundTrip(t *testing.T, name string, orig Retriever,
	save func(w *bytes.Buffer) error, saveAligned func(w *bytes.Buffer) error,
	loadStream, loadBytes func(b []byte) (Retriever, error),
) {
	t.Helper()
	var plain, aligned bytes.Buffer
	if err := save(&plain); err != nil {
		t.Fatal(err)
	}
	if err := saveAligned(&aligned); err != nil {
		t.Fatal(err)
	}

	type precise interface{ Precision() Precision }
	queries := []int{0, 5, 100}
	check := func(label string, ld Retriever) {
		t.Helper()
		if ld.(precise).Precision() != F32 {
			t.Fatalf("%s/%s: precision lost across save/load", name, label)
		}
		for _, q := range queries {
			a, err := orig.TopK(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			b, err := ld.TopK(q, 10)
			if err != nil {
				t.Fatalf("%s/%s: TopK(%d): %v", name, label, q, err)
			}
			if len(a) != len(b) {
				t.Fatalf("%s/%s: result count differs", name, label)
			}
			for i := range a {
				if a[i].Node != b[i].Node || a[i].Score != b[i].Score {
					t.Fatalf("%s/%s: query %d result %d differs: %+v vs %+v", name, label, q, i, a[i], b[i])
				}
			}
		}
	}

	streamed, err := loadStream(plain.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	check("stream", streamed)
	alignedStream, err := loadStream(aligned.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	check("aligned-stream", alignedStream)
	mapped, err := loadBytes(aligned.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	check("bytes", mapped)

	// Byte stability of the plain container across a load.
	var again bytes.Buffer
	if err := streamed.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), again.Bytes()) {
		t.Fatalf("%s: f32 save -> load -> save is not byte-stable", name)
	}

	// A loaded engine keeps its precision across the recipe rebuild.
	if err := streamed.Compact(); err != nil {
		t.Fatal(err)
	}
	if streamed.(precise).Precision() != F32 {
		t.Fatalf("%s: Compact on a loaded engine dropped the f32 storage mode", name)
	}
}
