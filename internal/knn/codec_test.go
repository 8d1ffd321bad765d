package knn

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mogul/internal/binio"
	"mogul/internal/vec"
)

func codecTestGraph(t *testing.T, n int, withPoints bool) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	points := make([]vec.Vector, n)
	for i := range points {
		points[i] = vec.Vector{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	g, err := BuildGraph(points, GraphConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !withPoints {
		g.Points = nil
	}
	return g
}

// graphLayouts are the three (precision, point layout) combinations a
// MOGULIDX file stores a graph in: versions 2-3, version 4 float64, and
// version 4 float32.
var graphLayouts = []struct{ f32, flat bool }{{false, false}, {false, true}, {true, true}}

// encodeGraph returns the graph's record in the given layout.
func encodeGraph(t *testing.T, g *Graph, f32, flat bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Encode(binio.NewWriter(&buf), f32, flat); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// graphReaders opens a record both ways the containers do: streamed
// and as an in-memory image (zero-copy views).
func graphReaders(data []byte) map[string]*binio.Reader {
	return map[string]*binio.Reader{
		"stream": binio.NewReader(bytes.NewReader(data)),
		"bytes":  binio.NewBytesReader(data),
	}
}

func TestGraphCodecRoundTrip(t *testing.T) {
	for _, withPoints := range []bool{true, false} {
		for _, l := range graphLayouts {
			g := codecTestGraph(t, 50, withPoints)
			if l.f32 {
				g.Narrow32()
			}
			for name, br := range graphReaders(encodeGraph(t, g, l.f32, l.flat)) {
				got, err := ReadGraph(br, l.f32, l.flat)
				if err != nil {
					t.Fatalf("%s %+v: %v", name, l, err)
				}
				if !reflect.DeepEqual(got, g) {
					t.Fatalf("%s %+v points=%v: graph differs after round trip", name, l, withPoints)
				}
			}
		}
	}
	// The two float64 layouts hold the same numbers in different
	// framings: one count word per point against one for the matrix.
	g := codecTestGraph(t, 50, true)
	perPoint, flat := encodeGraph(t, g, false, false), encodeGraph(t, g, false, true)
	if want := len(flat) + 8*(len(g.Points)-1); len(perPoint) != want {
		t.Fatalf("per-point record is %d bytes, want %d", len(perPoint), want)
	}
	if err := g.Encode(binio.NewWriter(&bytes.Buffer{}), true, true); err == nil {
		t.Fatal("f32 encode of a float64 graph accepted")
	}
}

func TestReadGraphRejectsCorruption(t *testing.T) {
	for _, l := range graphLayouts {
		build := func() *Graph {
			g := codecTestGraph(t, 30, true)
			if l.f32 {
				g.Narrow32()
			}
			return g
		}
		data := encodeGraph(t, build(), l.f32, l.flat)
		for n := 0; n < len(data); n += 11 {
			for name, br := range graphReaders(data[:n]) {
				if _, err := ReadGraph(br, l.f32, l.flat); err == nil {
					t.Fatalf("%s %+v: truncation to %d bytes accepted", name, l, n)
				}
			}
		}
		// Point count disagreeing with the adjacency dimension.
		bad := build()
		if l.f32 {
			bad.Pts32 = bad.Pts32[:10*bad.Dim32]
		} else {
			bad.Points = bad.Points[:10]
		}
		if _, err := ReadGraph(binio.NewBytesReader(encodeGraph(t, bad, l.f32, l.flat)), l.f32, l.flat); err == nil {
			t.Fatalf("%+v: point/adjacency size mismatch accepted", l)
		}
		// Non-positive bandwidth.
		bad2 := build()
		bad2.Sigma = 0
		if _, err := ReadGraph(binio.NewBytesReader(encodeGraph(t, bad2, l.f32, l.flat)), l.f32, l.flat); err == nil {
			t.Fatalf("%+v: zero bandwidth accepted", l)
		}
	}
}

// TestReadConfigRejectsRemovedBackend: the BCFG backend slot is
// reserved (writers emit 0). A file from a build that forced a since
// removed search structure must fail loudly, naming it — rebuilding its
// graph with the automatic choice would silently change the graph.
func TestReadConfigRejectsRemovedBackend(t *testing.T) {
	cfg := GraphConfig{K: 5, Mutual: true, Sigma: 0.5, Approximate: true, ApproxThreshold: 100, NProbe: 4, Seed: -3}
	var buf bytes.Buffer
	if err := cfg.Encode(binio.NewWriter(&buf)); err != nil {
		t.Fatal(err)
	}
	got, err := ReadConfig(binio.NewBytesReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if *got != cfg {
		t.Fatalf("config round trip: %+v, want %+v", *got, cfg)
	}
	const backendSlot = 3 * 8 // after K, the mutual flag, and sigma
	if slot := binary.LittleEndian.Uint64(buf.Bytes()[backendSlot:]); slot != 0 {
		t.Fatalf("writer emitted %d in the reserved backend slot, want 0", slot)
	}
	for id, wantIn := range map[uint64]string{1: "brute-force", 2: "IVF", 3: "VP-tree", 4: "IVF-PQ", 5: "corrupt", 1 << 40: "corrupt"} {
		bad := bytes.Clone(buf.Bytes())
		binary.LittleEndian.PutUint64(bad[backendSlot:], id)
		_, err := ReadConfig(binio.NewBytesReader(bad))
		if err == nil {
			t.Fatalf("backend id %d accepted", id)
		}
		if !strings.Contains(err.Error(), wantIn) {
			t.Fatalf("backend id %d: error %q does not mention %q", id, err, wantIn)
		}
	}
}
