package mogul

// Persistence hardening for the MOGULSPC container
// (spectral_persist.go), matching the plain/sharded/EMR suites: an
// errors-never-panics corruption sweep over truncations, bit flips,
// and CRC-restamped structural lies, plus a fuzz target over the
// sniffing loader. The happy-path round trip (bit-identical queries,
// byte-stable re-save, post-load Compact) lives in spectral_test.go.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// buildSpectralFixture builds a small engine with live delta state
// (inserts and tombstones on base and delta items) so every container
// section — graph, embedding, attachments, tombstones — carries
// non-trivial content.
func buildSpectralFixture(t *testing.T) *SpectralIndex {
	t.Helper()
	ds := NewMixture(MixtureConfig{N: 160, Classes: 6, Dim: 8, WithinStd: 0.35, Separation: 2.5, Seed: 29})
	e, err := BuildSpectral(ds.Points[:140], Options{Alpha: 0.99, Seed: 29, GraphK: 6}, SpectralOptions{Rank: 24, AttachK: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ds.Points[140:] {
		if _, err := e.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Delete(11); err != nil { // base tombstone
		t.Fatal(err)
	}
	if err := e.Delete(141); err != nil { // delta tombstone
		t.Fatal(err)
	}
	return e
}

// TestLoadSpectralNeverPanics: every truncation prefix, a stride of
// single-byte corruptions, and a table of structural lies with their
// CRC re-stamped must error, never panic.
func TestLoadSpectralNeverPanics(t *testing.T) {
	e := buildSpectralFixture(t)
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	tryLoad := func(label string, b []byte) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Load panicked on %s: %v", label, r)
			}
		}()
		if _, err := Load(bytes.NewReader(b)); err == nil {
			t.Fatalf("Load accepted %s", label)
		}
	}
	for n := 0; n < len(data); n += 199 {
		tryLoad(fmt.Sprintf("truncation to %d bytes", n), data[:n])
	}
	for pos := 0; pos < len(data); pos += 271 {
		mutated := append([]byte(nil), data...)
		mutated[pos] ^= 0x5A
		tryLoad(fmt.Sprintf("corruption at byte %d", pos), mutated)
	}

	// Structural corruptions that survive the checksum: the validation
	// layer itself must reject them.
	futureVersion := append([]byte(nil), data...)
	futureVersion[8] = 0xFF
	truncatedEnd := data[:len(data)-16]
	badEndPayload := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(badEndPayload[len(badEndPayload)-12:], 7)
	for _, tc := range []struct {
		label string
		data  []byte
	}{
		{"future container version", restamp(futureVersion)},
		{"missing end marker", truncatedEnd},
		{"end marker with payload", restamp(badEndPayload)},
		{"empty input", nil},
		{"bare spectral magic", []byte(spectralMagic)},
	} {
		tryLoad(tc.label, tc.data)
	}
}

// fuzzSpectralSeed serializes one engine fixture (with delta state)
// once for the fuzz corpus.
var fuzzSpectralSeed = sync.OnceValue(func() []byte {
	ds := NewMixture(MixtureConfig{N: 90, Classes: 4, Dim: 6, WithinStd: 0.3, Separation: 2.5, Seed: 53})
	e, err := BuildSpectral(ds.Points[:80], Options{Alpha: 0.99, Seed: 53}, SpectralOptions{Rank: 12, AttachK: 4})
	if err != nil {
		panic(err)
	}
	for _, p := range ds.Points[80:] {
		if _, err := e.Insert(p); err != nil {
			panic(err)
		}
	}
	if err := e.Delete(3); err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

// nanRowImage returns an aligned version-2 image of a small engine, in
// either precision, with one embedding element overwritten by NaN and
// the checksum left stale — what a flipped page of a mapped file looks
// like. The element is found by its own bytes, so the helper knows
// nothing of the section layout.
func nanRowImage(prec Precision) []byte {
	ds := NewMixture(MixtureConfig{N: 90, Classes: 4, Dim: 6, WithinStd: 0.3, Separation: 2.5, Seed: 59})
	e, err := BuildSpectral(ds.Points, Options{Seed: 59, Precision: prec}, SpectralOptions{Rank: 12})
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := e.SaveAligned(&buf, 64); err != nil {
		panic(err)
	}
	img := buf.Bytes()
	// Elements 40*rank+4 and +5 of the embedding, as stored.
	var pat, nan []byte
	if at := 40*e.st.rank + 4; prec == F32 {
		pat = binary.LittleEndian.AppendUint32(pat, math.Float32bits(e.st.emb32[at]))
		pat = binary.LittleEndian.AppendUint32(pat, math.Float32bits(e.st.emb32[at+1]))
		nan = binary.LittleEndian.AppendUint32(nan, math.Float32bits(float32(math.NaN())))
	} else {
		pat = binary.LittleEndian.AppendUint64(pat, math.Float64bits(e.st.emb[at]))
		pat = binary.LittleEndian.AppendUint64(pat, math.Float64bits(e.st.emb[at+1]))
		nan = binary.LittleEndian.AppendUint64(nan, math.Float64bits(math.NaN()))
	}
	pos := bytes.Index(img, pat)
	if pos < 0 || bytes.LastIndex(img, pat) != pos {
		panic("embedding element not located uniquely in the image")
	}
	copy(img[pos:], nan)
	return img
}

// TestLoadSpectralRejectsNonFiniteRow: a NaN embedding row would enter
// every top-k (NaN defeats the collector's comparison) and poison every
// later answer, so it is a load error on every path — including the two
// that skip the CRC and, by design, the per-element scans: the bytes
// loader and LoadFileMapped. The norm pass, which reads every row
// anyway, is what catches it.
func TestLoadSpectralRejectsNonFiniteRow(t *testing.T) {
	for name, prec := range map[string]Precision{"f64": F64, "f32": F32} {
		img := nanRowImage(prec)
		path := filepath.Join(t.TempDir(), name+".idx")
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		loads := map[string]func() error{
			"LoadSpectralBytes": func() error { _, err := LoadSpectralBytes(img); return err },
			"LoadFileMapped": func() error {
				_, closer, err := LoadFileMapped(path)
				if err == nil {
					closer.Close()
				}
				return err
			},
			// The streaming loader with the checksum re-stamped, so the
			// validation layer and not the CRC has to refuse it.
			"Load": func() error { _, err := Load(bytes.NewReader(restamp(img))); return err },
		}
		for label, load := range loads {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s %s panicked on a NaN embedding row: %v", name, label, r)
					}
				}()
				if err := load(); err == nil || !strings.Contains(err.Error(), "embedding row 40 is non-finite") {
					t.Fatalf("%s %s: error %v, want the non-finite row named", name, label, err)
				}
			}()
		}
	}
}

// FuzzLoadSpectral feeds arbitrary bytes to the sniffing loader. The
// contract: Load never panics, and any spectral input it accepts must
// search, mutate, and re-save without panicking. Explore with
//
//	go test -fuzz FuzzLoadSpectral -fuzztime 30s .
func FuzzLoadSpectral(f *testing.F) {
	seed := fuzzSpectralSeed()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])         // truncation
	f.Add(seed[:len(seed)-3])         // clipped checksum
	f.Add([]byte(spectralMagic))      // header only
	f.Add([]byte("MOGULSPC\x01\x00")) // header + partial version
	mutated := append([]byte(nil), seed...)
	mutated[len(mutated)/3] ^= 0x5A // body corruption
	f.Add(mutated)
	versioned := append([]byte(nil), seed...)
	versioned[8] = 0xFF // far-future container version
	f.Add(versioned)
	f.Add(restamp(nanRowImage(F64))) // structurally sound, one NaN embedding row

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		e, ok := r.(*SpectralIndex)
		if !ok {
			// Other formats have their own fuzz targets.
			return
		}
		if e.Len() <= 0 {
			t.Fatalf("loaded spectral engine has %d live items", e.Len())
		}
		// Query through a live id (0 may legitimately be tombstoned in
		// accepted input).
		live := -1
		for id := 0; id < e.IDSpace(); id++ {
			if e.Alive(id) {
				live = id
				break
			}
		}
		if live < 0 {
			t.Fatal("no live item in an accepted engine")
		}
		if _, err := e.TopK(live, 3); err != nil {
			t.Fatalf("loaded spectral engine cannot search: %v", err)
		}
		var buf bytes.Buffer
		if err := e.Save(&buf); err != nil {
			t.Fatalf("loaded spectral engine cannot re-save: %v", err)
		}
	})
}
