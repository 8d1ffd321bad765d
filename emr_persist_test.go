package mogul

// Persistence tests for the MOGULEMR container (emr_persist.go),
// matching the plain and sharded suites: bit-identical round trips
// (including delta state), magic-sniffing dispatch through Load, an
// errors-never-panics corruption sweep, and a fuzz target.

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

// buildEMRFixture builds a small engine with live delta state
// (inserts and tombstones on base and delta items) so a round trip
// covers every container feature.
func buildEMRFixture(t *testing.T) *EMRIndex {
	t.Helper()
	ds := NewMixture(MixtureConfig{N: 160, Classes: 6, Dim: 8, WithinStd: 0.35, Separation: 2.5, Seed: 29})
	e, err := BuildEMR(ds.Points[:140], Options{Alpha: 0.99, Seed: 29}, EMROptions{NumAnchors: 20, NumNearestAnchors: 4})
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

func TestEMRSaveLoadRoundTrip(t *testing.T) {
	e := buildEMRFixture(t)
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadEMR(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != e.Len() || loaded.IDSpace() != e.IDSpace() || loaded.NumAnchors() != e.NumAnchors() {
		t.Fatalf("identity lost: len=%d idspace=%d p=%d", loaded.Len(), loaded.IDSpace(), loaded.NumAnchors())
	}
	if loaded.Exact() || loaded.Version() != 1 {
		t.Fatalf("exact=%v version=%d", loaded.Exact(), loaded.Version())
	}
	if d, want := loaded.Delta(), e.Delta(); d != want {
		t.Fatalf("delta %+v, want %+v", d, want)
	}

	// Save -> Load -> query is bit-identical across every path,
	// including delta items and around tombstones.
	for _, q := range []int{0, 12, 77, 139, 140, 159} {
		a, err := e.TopK(q, 12)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.TopK(q, 12)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("TopK(%d)", q), b, a)
	}
	qv := append(Vector(nil), loaded.st.points.Row(3, nil)...)
	qv[0] += 0.03
	a, err := e.TopKVector(qv, 12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.TopKVector(qv, 12)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "TopKVector", b, a)
	sa, err := e.TopKSet([]int{2, 9}, 8)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := loaded.TopKSet([]int{2, 9}, 8)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "TopKSet", sb, sa)

	// Tombstoned queries keep failing after the round trip.
	if _, err := loaded.TopK(11, 5); err == nil {
		t.Fatal("tombstoned item served as query after load")
	}

	// The loaded engine keeps mutating correctly: the anchor
	// attachment state (colSum/lambda) round-tripped, and Compact can
	// rebuild from the recorded recipe.
	if _, err := loaded.Insert(qv); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Delete(2); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.TopK(0, 5); err != nil {
		t.Fatal(err)
	}

	// A re-save of an untouched load is byte-identical (deterministic
	// serialization of identical state).
	reload, err := LoadEMR(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := reload.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("save/load/save is not byte-stable")
	}
}

// TestEMRLoadDispatch: mogul.Load and LoadFile sniff the MOGULEMR
// magic and return an *EMRIndex behind the Retriever surface.
func TestEMRLoadDispatch(t *testing.T) {
	e := buildEMRFixture(t)
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	le, ok := got.(*EMRIndex)
	if !ok {
		t.Fatalf("EMR file loaded as %T", got)
	}
	if le.Len() != e.Len() {
		t.Fatalf("identity lost through Load: len=%d", le.Len())
	}

	dir := t.TempDir()
	path := dir + "/engine.emr"
	if err := e.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEMRFile(path); err != nil {
		t.Fatal(err)
	}
	r, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.(*EMRIndex); !ok {
		t.Fatalf("file path loaded as %T", r)
	}
	a, _ := e.TopK(7, 6)
	b, err := r.TopK(7, 6)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "TopK through LoadFile", b, a)
}

// TestLoadEMRNeverPanics: every truncation prefix, a stride of
// single-byte corruptions, and a table of structural lies with their
// CRC re-stamped must error, never panic.
func TestLoadEMRNeverPanics(t *testing.T) {
	e := buildEMRFixture(t)
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
	for label, image := range corruptGramImages(data) {
		for loader, load := range map[string]func() (*EMRIndex, error){
			"stream": func() (*EMRIndex, error) { return LoadEMR(bytes.NewReader(image)) },
			"bytes":  func() (*EMRIndex, error) { return LoadEMRBytes(image) },
		} {
			if _, err := load(); err == nil || !strings.Contains(err.Error(), "gram") {
				t.Fatalf("%s (%s load): error %v, want the gram validation to reject it", label, loader, err)
			}
		}
	}
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
		{"bare EMR magic", []byte(emrMagic)},
	} {
		tryLoad(tc.label, tc.data)
	}
}

// corruptGramImages derives, from a plain (unaligned) version-3 image,
// the three lies about the gram inverse that survive the checksum: an
// EGRM section cut one element short, an order that disagrees with the
// anchor count, and a non-finite element. Each must fail at load, as
// the LU validation guaranteed for versions 1 and 2.
func corruptGramImages(data []byte) map[string][]byte {
	// Walk the frame to EGRM: [tag 4][len 8][payload], payload =
	// [order 8][count 8][p*p float64].
	pos := len(emrMagic) + 4
	for !bytes.Equal(data[pos:pos+4], tagEgrm[:]) {
		pos += 12 + int(binary.LittleEndian.Uint64(data[pos+4:]))
	}
	size := int(binary.LittleEndian.Uint64(data[pos+4:]))
	payload := pos + 12

	short := append([]byte(nil), data[:payload+size-8]...)
	short = append(short, data[payload+size:]...)
	binary.LittleEndian.PutUint64(short[pos+4:], uint64(size-8))

	order := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(order[payload:], binary.LittleEndian.Uint64(order[payload:])+1)

	nan := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(nan[payload+16+8*5:], math.Float64bits(math.NaN()))

	return map[string][]byte{
		"EGRM cut one element short":   restamp(short),
		"gram order off by one":        restamp(order),
		"non-finite gram inverse cell": restamp(nan),
	}
}

// fuzzEMRSeed serializes one engine fixture (with delta state) once
// for the fuzz corpus.
var fuzzEMRSeed = sync.OnceValue(func() []byte {
	ds := NewMixture(MixtureConfig{N: 90, Classes: 4, Dim: 6, WithinStd: 0.3, Separation: 2.5, Seed: 53})
	e, err := BuildEMR(ds.Points[:80], Options{Alpha: 0.99, Seed: 53}, EMROptions{NumAnchors: 12, NumNearestAnchors: 4})
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

// FuzzLoadEMR feeds arbitrary bytes to the sniffing loader. The
// contract: Load never panics, and any EMR input it accepts must
// search, mutate, and re-save without panicking. Explore with
//
//	go test -fuzz FuzzLoadEMR -fuzztime 30s .
func FuzzLoadEMR(f *testing.F) {
	seed := fuzzEMRSeed()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])         // truncation
	f.Add(seed[:len(seed)-3])         // clipped checksum
	f.Add([]byte(emrMagic))           // header only
	f.Add([]byte("MOGULEMR\x01\x00")) // header + partial version
	mutated := append([]byte(nil), seed...)
	mutated[len(mutated)/3] ^= 0x5A // body corruption
	f.Add(mutated)
	versioned := append([]byte(nil), seed...)
	versioned[8] = 0xFF // far-future container version
	f.Add(versioned)
	for _, image := range corruptGramImages(seed) {
		f.Add(image)
	}
	// The seed is a version-3 image; the legacy readers (LU factors in
	// EGRM, inverted at load) start from the committed v1/v2 files.
	for _, file := range []string{"emr_v1_f64.bin", "emr_v2_f32.bin", "emr_v2_f64_aligned4096.bin"} {
		legacy, err := os.ReadFile(filepath.Join("testdata", "golden", file))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(legacy)
	}
	// Stored weights the scan's bound cannot cover (emr_prune_test.go):
	// refused among the base rows, served on a delta row.
	bad, tolerated := corruptWeightImages(seed, 90, 4, false)
	for _, image := range bad {
		f.Add(image)
	}
	f.Add(tolerated)

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		e, ok := r.(*EMRIndex)
		if !ok {
			// Other formats have their own fuzz targets.
			return
		}
		if e.Len() <= 0 {
			t.Fatalf("loaded EMR engine has %d live items", e.Len())
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
			t.Fatalf("loaded EMR engine cannot search: %v", err)
		}
		var buf bytes.Buffer
		if err := e.Save(&buf); err != nil {
			t.Fatalf("loaded EMR engine cannot re-save: %v", err)
		}
	})
}
