package mogul

// LoadFileMapped hardening: the mmap loader round-trips every
// container format the magic sniffer dispatches on, corrupt or
// truncated aligned images error (never panic) through the bytes
// readers it delegates to, and a fuzz target drives arbitrary bytes
// through the same dispatch. The bytes readers skip the trailing CRC
// by design, so the corruption sweep here leans on the structural
// validation layer alone — exactly what a flipped page in a mapped
// file would meet in production.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"unsafe"

	"mogul/internal/core"
	"mogul/internal/diskio"
)

// mappedFixtures returns one saved image per container format, keyed
// by a label, alongside the engine that wrote it. Core, EMR, and
// spectral save the aligned f32 layout (the mmap target); sharded
// saves its own manifest format, which LoadFileMapped decodes by
// copying.
func mappedFixtures(t *testing.T) map[string]struct {
	engine Retriever
	data   []byte
} {
	t.Helper()
	out := map[string]struct {
		engine Retriever
		data   []byte
	}{}
	ds := NewMixture(MixtureConfig{N: 300, Classes: 6, Dim: 8, WithinStd: 0.3, Separation: 3, Seed: 51})
	add := func(label string, r Retriever, save func(w *bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := save(&buf); err != nil {
			t.Fatalf("%s: save: %v", label, err)
		}
		out[label] = struct {
			engine Retriever
			data   []byte
		}{r, buf.Bytes()}
	}

	ix, err := Build(ds.Points, Options{Seed: 51, Precision: F32})
	if err != nil {
		t.Fatal(err)
	}
	add("core", ix, func(w *bytes.Buffer) error { return ix.SaveAligned(w, 4096) })

	emr, err := BuildEMR(ds.Points, Options{Seed: 51, Precision: F32}, EMROptions{NumAnchors: 24, NumNearestAnchors: 3})
	if err != nil {
		t.Fatal(err)
	}
	add("emr", emr, func(w *bytes.Buffer) error { return emr.SaveAligned(w, 4096) })

	spc, err := BuildSpectral(ds.Points, Options{Seed: 51, GraphK: 6, Precision: F32}, SpectralOptions{Rank: 24})
	if err != nil {
		t.Fatal(err)
	}
	add("spectral", spc, func(w *bytes.Buffer) error { return spc.SaveAligned(w, 4096) })

	six, err := BuildSharded(ds.Points, Options{Seed: 51}, ShardOptions{Shards: 2, Partitioner: PartitionContiguous})
	if err != nil {
		t.Fatal(err)
	}
	add("sharded", six, func(w *bytes.Buffer) error { return six.Save(w) })
	return out
}

// TestLoadFileMappedRoundTrip: every format loads through the mmap
// path and answers bit-identically to the engine that saved it; the
// mapping closes cleanly afterwards, and closing is idempotent.
func TestLoadFileMappedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for label, fx := range mappedFixtures(t) {
		path := filepath.Join(dir, label+".idx")
		if err := os.WriteFile(path, fx.data, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, closer, err := LoadFileMapped(path)
		if err != nil {
			t.Fatalf("%s: LoadFileMapped: %v", label, err)
		}
		if loaded.Len() != fx.engine.Len() {
			t.Fatalf("%s: Len %d after mapped load, want %d", label, loaded.Len(), fx.engine.Len())
		}
		for _, q := range []int{0, 17, 299} {
			want, err := fx.engine.TopK(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.TopK(q, 10)
			if err != nil {
				t.Fatalf("%s: mapped TopK(%d): %v", label, q, err)
			}
			if len(want) != len(got) {
				t.Fatalf("%s: result count differs", label)
			}
			for i := range want {
				if want[i].Node != got[i].Node || want[i].Score != got[i].Score {
					t.Fatalf("%s: query %d result %d differs: %+v vs %+v", label, q, i, want[i], got[i])
				}
			}
		}
		// Mutating a mapped engine must relocate, not write the mapping.
		if _, err := loaded.Insert(append(Vector(nil), make([]float64, 8)...)); err != nil {
			t.Fatalf("%s: Insert on mapped engine: %v", label, err)
		}
		if err := closer.Close(); err != nil {
			t.Fatalf("%s: Close: %v", label, err)
		}
		if err := closer.Close(); err != nil {
			t.Fatalf("%s: second Close: %v", label, err)
		}
	}
}

// TestLoadFileMappedEMRGramZeroCopy: the p x p gram inverse of an
// aligned version-3 MOGULEMR file is served straight out of the
// mapping (the same zero-copy rule as the other big arrays), and the
// mapped engine answers bit-identically to the one that saved it.
func TestLoadFileMappedEMRGramZeroCopy(t *testing.T) {
	if binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		t.Skip("zero-copy views need a little-endian host")
	}
	ds := NewMixture(MixtureConfig{N: 300, Classes: 6, Dim: 8, WithinStd: 0.3, Separation: 3, Seed: 51})
	e, err := BuildEMR(ds.Points, Options{Seed: 51}, EMROptions{NumAnchors: 32, NumNearestAnchors: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "engine.emr")
	if err := e.SaveFileAligned(path, 4096); err != nil {
		t.Fatal(err)
	}
	r, closer, err := LoadFileMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	image := closer.(*diskio.Mapping).Data()
	gram := r.(*EMRIndex).st.gramInv.Data
	lo, hi := uintptr(unsafe.Pointer(&image[0])), uintptr(unsafe.Pointer(&image[len(image)-1]))
	at := uintptr(unsafe.Pointer(&gram[0]))
	if at < lo || at > hi {
		t.Fatal("the gram inverse of a mapped aligned file was copied, want a view into the mapping")
	}
	if (at-lo)%4096 != 0 {
		t.Fatalf("the gram inverse starts at file offset %d, want a multiple of 4096", at-lo)
	}
	want, err := e.TopK(17, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.TopK(17, 10)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "mapped EMR TopK", got, want)
}

// TestLoadFileMappedErrors: file-level failure modes of the mmap
// loader — absent, too short, alien magic — error with the mapping
// released.
func TestLoadFileMappedErrors(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := LoadFileMapped(filepath.Join(dir, "absent")); err == nil {
		t.Fatal("missing file: no error")
	}
	short := filepath.Join(dir, "short")
	if err := os.WriteFile(short, []byte("MOG"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadFileMapped(short); err == nil {
		t.Fatal("3-byte file: no error")
	}
	alien := filepath.Join(dir, "alien")
	if err := os.WriteFile(alien, []byte("NOTMOGUL-and-some-trailing-bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadFileMapped(alien); err == nil {
		t.Fatal("alien magic: no error")
	}
}

// tryLoadMapped dispatches an in-memory image exactly as LoadFileMapped
// does after mapping, so the corruption sweep and the fuzz target
// exercise the identical decode surface without a file per case.
func tryLoadMapped(data []byte) (Retriever, error) {
	if len(data) < 8 {
		return nil, errors.New("image shorter than a magic header")
	}
	return loaderFor(data[:8]).image(data)
}

// TestLoadMappedNeverPanics: every truncation prefix and a stride of
// single-byte corruptions of each aligned image must error or produce
// a servable engine — never panic. The bytes path skips the CRC, so
// (unlike the streaming sweeps) a flipped byte may well decode; the
// property under test is purely no-panic plus a queryable result.
func TestLoadMappedNeverPanics(t *testing.T) {
	for label, fx := range mappedFixtures(t) {
		data := fx.data
		try := func(caseLabel string, b []byte) {
			t.Helper()
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: mapped load panicked on %s: %v", label, caseLabel, r)
				}
			}()
			r, err := tryLoadMapped(b)
			if err != nil || r == nil {
				return
			}
			// Accepted input must serve without panicking.
			_, _ = r.TopK(0, 5)
			_ = r.Len()
		}
		step := len(data)/512 + 1
		for n := 0; n < len(data); n += step {
			try("truncation", data[:n])
		}
		for pos := 0; pos < len(data); pos += 131 {
			mutated := append([]byte(nil), data...)
			mutated[pos] ^= 0xFF
			try("bit flip", mutated)
		}
	}
}

// TestByteLoadersRejectEmptyImage: a nil or zero-length image is a
// truncated file to every in-memory loader — an error naming the
// unexpected EOF, never a nil-pointer panic (a nil slice once read as
// "stream mode" and dereferenced the absent io.Reader).
func TestByteLoadersRejectEmptyImage(t *testing.T) {
	loaders := map[string]func([]byte) error{
		"core.ReadIndexBytes": func(b []byte) error { _, err := core.ReadIndexBytes(b); return err },
		"LoadEMRBytes":        func(b []byte) error { _, err := LoadEMRBytes(b); return err },
		"LoadSpectralBytes":   func(b []byte) error { _, err := LoadSpectralBytes(b); return err },
	}
	for name, load := range loaders {
		for label, image := range map[string][]byte{"nil": nil, "zero-length": {}} {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s panicked on a %s image: %v", name, label, r)
					}
				}()
				if err := load(image); !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("%s on a %s image: error %v, want io.ErrUnexpectedEOF", name, label, err)
				}
			}()
		}
	}
}

// fuzzMappedSeed holds one aligned image per engine format for the
// fuzz corpus.
var fuzzMappedSeed = sync.OnceValue(func() [][]byte {
	ds := NewMixture(MixtureConfig{N: 120, Classes: 4, Dim: 6, WithinStd: 0.3, Separation: 3, Seed: 67})
	var out [][]byte
	save := func(save func(w *bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := save(&buf); err != nil {
			panic(err)
		}
		out = append(out, buf.Bytes())
	}
	ix, err := Build(ds.Points, Options{Seed: 67, Precision: F32})
	if err != nil {
		panic(err)
	}
	save(func(w *bytes.Buffer) error { return ix.SaveAligned(w, 64) })
	emr, err := BuildEMR(ds.Points, Options{Seed: 67, Precision: F32}, EMROptions{NumAnchors: 12, NumNearestAnchors: 3})
	if err != nil {
		panic(err)
	}
	save(func(w *bytes.Buffer) error { return emr.SaveAligned(w, 64) })
	spc, err := BuildSpectral(ds.Points, Options{Seed: 67, GraphK: 5, Precision: F32}, SpectralOptions{Rank: 16})
	if err != nil {
		panic(err)
	}
	save(func(w *bytes.Buffer) error { return spc.SaveAligned(w, 64) })
	return out
})

// FuzzLoadMapped drives arbitrary bytes through the mapped-load
// dispatch. The contract: never panic; accepted input serves queries
// without panicking. Explore with
//
//	go test -fuzz FuzzLoadMapped -fuzztime 30s .
func FuzzLoadMapped(f *testing.F) {
	for _, seed := range fuzzMappedSeed() {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		mutated := append([]byte(nil), seed...)
		mutated[len(mutated)/3] ^= 0x5A
		f.Add(mutated)
	}
	// Structurally sound, one NaN embedding row (spectral_persist_test.go).
	f.Add(nanRowImage(F64))
	f.Add(nanRowImage(F32))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := tryLoadMapped(data)
		if err != nil || r == nil {
			return
		}
		_, _ = r.TopK(0, 5)
		_ = r.Len()
		_ = r.Delta()
	})
}
