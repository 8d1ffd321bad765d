package mogul

// Tests and benchmarks for the index persistence subsystem (Save /
// Load, docs/FORMAT.md). The contract under test: a loaded index is
// indistinguishable from the index that was saved — bit-identical
// TopK and TopKVector answers in both the approximate (Mogul) and
// exact (MogulE) modes — and malformed input of any kind produces an
// error, never a panic.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

func saveToBytes(t *testing.T, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSaveLoadBitIdentical(t *testing.T) {
	ds := NewMixture(MixtureConfig{
		N: 500, Classes: 10, Dim: 16, WithinStd: 0.25, Separation: 2.5, Seed: 7,
	})
	queryVec := make(Vector, ds.Dim())
	copy(queryVec, ds.Points[3])
	queryVec[0] += 0.05 // out-of-sample: near node 3 but not in the database

	for _, exact := range []bool{false, true} {
		name := "Mogul"
		if exact {
			name = "MogulE"
		}
		t.Run(name, func(t *testing.T) {
			orig, err := BuildFromDataset(ds, Options{Exact: exact})
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(bytes.NewReader(saveToBytes(t, orig)))
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Len() != orig.Len() || loaded.Exact() != exact {
				t.Fatalf("identity lost: len=%d exact=%v", loaded.Len(), loaded.Exact())
			}
			for _, q := range []int{0, 123, 499} {
				a, err := orig.TopK(q, 12)
				if err != nil {
					t.Fatal(err)
				}
				b, err := loaded.TopK(q, 12)
				if err != nil {
					t.Fatal(err)
				}
				if len(a) != len(b) {
					t.Fatalf("TopK(%d) length %d vs %d", q, len(a), len(b))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("TopK(%d) result %d: %+v vs %+v", q, i, a[i], b[i])
					}
				}
			}
			a, err := orig.TopKVector(queryVec, 12)
			if err != nil {
				t.Fatal(err)
			}
			b, err := loaded.TopKVector(queryVec, 12)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("TopKVector length %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("TopKVector result %d: %+v vs %+v", i, a[i], b[i])
				}
			}
		})
	}
}

func TestSaveFileLoadFileRoundTrip(t *testing.T) {
	ix, _ := buildTestIndex(t, Options{})
	path := t.TempDir() + "/index.mogul"
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ix.TopK(11, 6)
	b, _ := loaded.TopK(11, 6)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if _, err := LoadFile(t.TempDir() + "/missing.mogul"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestLoadNeverPanics feeds Load every truncation prefix and a sweep
// of single-byte corruptions of a valid file. Each must return an
// error; a panic fails the test via the deferred recover.
func TestLoadNeverPanics(t *testing.T) {
	ix, _ := buildTestIndex(t, Options{})
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	tryLoad := func(label string, b []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Load panicked on %s: %v", label, r)
			}
		}()
		if _, err := Load(bytes.NewReader(b)); err == nil {
			t.Fatalf("Load accepted %s", label)
		}
	}
	for n := 0; n < len(data); n += 13 {
		tryLoad(fmt.Sprintf("truncation to %d bytes", n), data[:n])
	}
	for pos := 0; pos < len(data); pos += 29 {
		mutated := append([]byte(nil), data...)
		mutated[pos] ^= 0x5A
		tryLoad(fmt.Sprintf("corruption at byte %d", pos), mutated)
	}
	tryLoad("wrong magic", []byte("GOBSTREAMthis was the v1 format"))
}

// Benchmarks recording the point of the subsystem: loading a prebuilt
// index versus re-running the whole precomputation (k-NN graph,
// clustering, permutation, factorization) at n = 10,000. Run with:
//
//	go test -bench 'Index(Load|Rebuild)10k' -benchtime 3x .
var bench10k struct {
	once sync.Once
	ds   *Dataset
	blob []byte
}

func bench10kSetup(b *testing.B) {
	bench10k.once.Do(func() {
		bench10k.ds = NewNUSWideSim(10000, 5)
		ix, err := BuildFromDataset(bench10k.ds, Options{ApproximateGraph: true, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			b.Fatal(err)
		}
		bench10k.blob = buf.Bytes()
	})
}

func BenchmarkIndexRebuild10k(b *testing.B) {
	bench10kSetup(b)
	b.SetBytes(int64(len(bench10k.blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildFromDataset(bench10k.ds, Options{ApproximateGraph: true, Seed: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexLoad10k(b *testing.B) {
	bench10kSetup(b)
	b.SetBytes(int64(len(bench10k.blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := Load(bytes.NewReader(bench10k.blob))
		if err != nil {
			b.Fatal(err)
		}
		if ix.Len() != 10000 {
			b.Fatal("short index")
		}
	}
}

func BenchmarkIndexSave10k(b *testing.B) {
	bench10kSetup(b)
	ix, err := Load(bytes.NewReader(bench10k.blob))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(bench10k.blob)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLoadRefusesNonFinitePoint: a stored point with a NaN component is
// a load error in every container whose point matrix is written one row
// at a time — MOGULIDX version 3 and the version 1 spectral container —
// through the one decoder both use. The image is re-checksummed, so the
// decoder and not the CRC has to refuse it.
func TestLoadRefusesNonFinitePoint(t *testing.T) {
	t.Parallel()
	pts := NewMixture(MixtureConfig{N: 120, Classes: 4, Dim: 6, WithinStd: 0.3, Separation: 2.5, Seed: 61}).Points
	ix, err := Build(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spc, err := BuildSpectral(pts, Options{}, SpectralOptions{Rank: 8})
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]interface{ Save(io.Writer) error }{"MOGULIDX v3": ix, "MOGULSPC v1": spc} {
		var buf bytes.Buffer
		if err := e.Save(&buf); err != nil {
			t.Fatal(err)
		}
		img := buf.Bytes()
		// Point 40's first two components, as stored.
		pat := binary.LittleEndian.AppendUint64(nil, math.Float64bits(pts[40][0]))
		pat = binary.LittleEndian.AppendUint64(pat, math.Float64bits(pts[40][1]))
		pos := bytes.Index(img, pat)
		if pos < 0 || bytes.LastIndex(img, pat) != pos {
			t.Fatalf("%s: point 40 not located uniquely in the image", name)
		}
		binary.LittleEndian.PutUint64(img[pos:], math.Float64bits(math.NaN()))
		if _, err := Load(bytes.NewReader(restamp(img))); err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Fatalf("%s: error %v, want the non-finite point refused", name, err)
		}
	}
}
