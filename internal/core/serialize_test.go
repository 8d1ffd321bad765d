package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"mogul/internal/knn"
)

// crc32OfTest mirrors the container's whole-stream checksum.
func crc32OfTest(p []byte) uint32 { return crc32.ChecksumIEEE(p) }

func roundTrip(t *testing.T, ix *Index) *Index {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded.Index
}

func TestIndexSerializationRoundTrip(t *testing.T) {
	g := testGraph(t, 300, 6, 21)
	for _, exact := range []bool{false, true} {
		orig, err := NewIndex(g, Options{Exact: exact})
		if err != nil {
			t.Fatal(err)
		}
		loaded := roundTrip(t, orig)
		if loaded.Exact() != exact || loaded.Alpha() != orig.Alpha() {
			t.Fatalf("metadata lost: exact=%v alpha=%g", loaded.Exact(), loaded.Alpha())
		}
		st := loaded.Stats()
		ot := orig.Stats()
		if st.NumNodes != g.Len() || st.FactorNNZ != orig.Factor().NNZ() {
			t.Fatalf("stats lost: %+v", st)
		}
		if st.Modularity != ot.Modularity || st.FactorTime != ot.FactorTime {
			t.Fatalf("precompute stats lost: %+v vs %+v", st, ot)
		}
		// Search results must be identical, including pruning behaviour
		// (bound tables are rebuilt on load).
		for _, q := range []int{0, 50, 299} {
			a, ai, err := orig.Search(q, SearchOptions{K: 10})
			if err != nil {
				t.Fatal(err)
			}
			b, bi, err := loaded.Search(q, SearchOptions{K: 10})
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("result count differs after load")
			}
			for i := range a {
				if a[i].Node != b[i].Node || a[i].Score != b[i].Score {
					t.Fatalf("result %d differs after load: %+v vs %+v", i, a[i], b[i])
				}
			}
			if ai.ClustersPruned != bi.ClustersPruned {
				t.Fatalf("pruning differs after load: %d vs %d", ai.ClustersPruned, bi.ClustersPruned)
			}
		}
		// Out-of-sample search returns bit-identical answers: the
		// quantizer travels with the file rather than being rebuilt.
		if loaded.oosMeans == nil {
			t.Fatal("out-of-sample quantizer not restored from file")
		}
		a, _, err := orig.SearchOutOfSample(g.Points[3], OOSOptions{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := loaded.SearchOutOfSample(g.Points[3], OOSOptions{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("out-of-sample result count differs after load")
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("out-of-sample result %d differs after load: %+v vs %+v", i, a[i], b[i])
			}
		}
	}
}

func TestReadIndexRejectsGarbage(t *testing.T) {
	for name, data := range map[string][]byte{
		"empty":       nil,
		"short":       []byte("MOG"),
		"wrong magic": []byte("not a mogul index file at all"),
		"gob relic":   {0x3a, 0xff, 0x81, 0x03, 0x01, 0x01, 0x09},
	} {
		if _, err := ReadIndex(bytes.NewReader(data)); err == nil {
			t.Fatalf("%s input accepted", name)
		}
	}
}

func TestReadIndexDetectsCorruption(t *testing.T) {
	g := testGraph(t, 100, 3, 22)
	ix, err := NewIndex(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Flip one byte at a spread of positions: every corruption must be
	// reported as an error (checksum or validation), never a panic or a
	// silent success.
	for pos := 0; pos < buf.Len(); pos += 41 {
		data := append([]byte(nil), buf.Bytes()...)
		data[pos] ^= 0xFF
		if _, err := ReadIndex(bytes.NewReader(data)); err == nil {
			t.Fatalf("corruption at byte %d not detected", pos)
		}
	}
}

// TestReadIndexRejectsRemovedAlternates: the BCFG backend and clusterer
// slots are reserved (writers emit 0). A file from a build that
// selected a since-removed k-NN backend or clusterer must fail the load
// with an error naming it — Compact would otherwise silently rebuild
// the index with a different algorithm than the one that made it.
func TestReadIndexRejectsRemovedAlternates(t *testing.T) {
	g := testGraph(t, 100, 3, 22)
	ix, err := NewIndex(g, Options{Graph: &knn.GraphConfig{K: 5}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	bcfg := bytes.Index(data, tagBcfg[:])
	if bcfg < 0 {
		t.Fatal("BCFG section not found")
	}
	payload := bcfg + 12 // tag + length
	// BCFG layout: the graph config's eight 8-byte scalars (backend is
	// the fourth), then ordering, then clusterer.
	const backendSlot, clustererSlot = 3 * 8, 9 * 8
	for _, slot := range []int{backendSlot, clustererSlot} {
		if v := binary.LittleEndian.Uint64(data[payload+slot:]); v != 0 {
			t.Fatalf("writer emitted %d in reserved BCFG slot at +%d, want 0", v, slot)
		}
	}
	cases := []struct {
		slot   int
		id     uint64
		wantIn string
	}{
		{backendSlot, 3, "VP-tree"},
		{backendSlot, 4, "IVF-PQ"},
		{backendSlot, 9, "corrupt"},
		{clustererSlot, 1, "label-propagation"},
		{clustererSlot, 2, "corrupt"},
	}
	for _, tc := range cases {
		bad := bytes.Clone(data[:len(data)-4])
		binary.LittleEndian.PutUint64(bad[payload+tc.slot:], tc.id)
		bad = binary.LittleEndian.AppendUint32(bad, crc32OfTest(bad))
		_, err := ReadIndex(bytes.NewReader(bad))
		if err == nil {
			t.Fatalf("BCFG slot +%d = %d accepted", tc.slot, tc.id)
		}
		if !strings.Contains(err.Error(), tc.wantIn) {
			t.Fatalf("BCFG slot +%d = %d: error %q does not mention %q", tc.slot, tc.id, err, tc.wantIn)
		}
	}
}

func TestReadIndexRejectsTruncation(t *testing.T) {
	g := testGraph(t, 100, 3, 23)
	ix, err := NewIndex(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < buf.Len(); n += 37 {
		if _, err := ReadIndex(bytes.NewReader(buf.Bytes()[:n])); err == nil {
			t.Fatalf("truncation to %d bytes not detected", n)
		}
	}
}

func TestReadIndexSkipsUnknownSections(t *testing.T) {
	g := testGraph(t, 80, 4, 24)
	ix, err := NewIndex(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Splice a section with an unknown tag in front of the END marker
	// and refresh the trailing checksum: a newer writer adding sections
	// must not break this reader.
	data := buf.Bytes()
	end := bytes.LastIndex(data[:len(data)-4], append([]byte{'E', 'N', 'D', 0}, make([]byte, 8)...))
	if end < 0 {
		t.Fatal("end marker not found")
	}
	extra := []byte{'X', 'T', 'R', 'A', 5, 0, 0, 0, 0, 0, 0, 0, 'h', 'e', 'l', 'l', 'o'}
	patched := append(append(append([]byte(nil), data[:end]...), extra...), data[end:len(data)-4]...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32OfTest(patched))
	patched = append(patched, crc[:]...)
	loaded, err := ReadIndex(bytes.NewReader(patched))
	if err != nil {
		t.Fatalf("unknown section broke the reader: %v", err)
	}
	if loaded.Stats().NumNodes != g.Len() {
		t.Fatal("index mangled by unknown section")
	}
}

func TestIndexWithoutPointsRoundTrips(t *testing.T) {
	g := testGraph(t, 120, 4, 25)
	g.Points = nil // index built over a bare adjacency
	ix, err := NewIndex(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, ix)
	a, err := ix.TopK(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.TopK(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] || math.IsNaN(b[i].Score) {
			t.Fatalf("result %d differs after load: %+v vs %+v", i, a[i], b[i])
		}
	}
	if _, _, err := loaded.SearchOutOfSample(make([]float64, 3), OOSOptions{K: 3}); err == nil {
		t.Fatal("out-of-sample search should fail without feature vectors")
	}
}
