package knn

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"

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

func TestGraphCodecRoundTrip(t *testing.T) {
	for _, withPoints := range []bool{true, false} {
		g := codecTestGraph(t, 50, withPoints)
		var buf bytes.Buffer
		n, err := g.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
		}
		got, err := ReadGraph(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.K != g.K || got.Sigma != g.Sigma {
			t.Fatalf("header lost: k=%d sigma=%g", got.K, got.Sigma)
		}
		if !reflect.DeepEqual(got.Adj, g.Adj) {
			t.Fatal("adjacency differs after round trip")
		}
		if withPoints {
			if !reflect.DeepEqual(got.Points, g.Points) {
				t.Fatal("points differ after round trip")
			}
		} else if got.Points != nil {
			t.Fatalf("expected nil points, got %d", len(got.Points))
		}
	}
}

func TestReadGraphRejectsCorruption(t *testing.T) {
	g := codecTestGraph(t, 30, true)
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < buf.Len(); n += 11 {
		if _, err := ReadGraph(bytes.NewReader(buf.Bytes()[:n])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Point count disagreeing with the adjacency dimension.
	bad := codecTestGraph(t, 30, true)
	bad.Points = bad.Points[:10]
	var b2 bytes.Buffer
	if _, err := bad.WriteTo(&b2); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadGraph(&b2); err == nil {
		t.Fatal("point/adjacency size mismatch accepted")
	}
	// Non-positive bandwidth.
	bad2 := codecTestGraph(t, 30, true)
	bad2.Sigma = 0
	var b3 bytes.Buffer
	if _, err := bad2.WriteTo(&b3); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadGraph(&b3); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
}

// TestReadConfigRejectsRemovedBackend: the BCFG backend slot is
// reserved (writers emit 0). A file from a build that forced a since
// removed search structure must fail loudly, naming it — rebuilding its
// graph with the automatic choice would silently change the graph.
func TestReadConfigRejectsRemovedBackend(t *testing.T) {
	cfg := GraphConfig{K: 5, Mutual: true, Sigma: 0.5, Approximate: true, ApproxThreshold: 100, NProbe: 4, Seed: -3}
	var buf bytes.Buffer
	if _, err := cfg.WriteConfig(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadConfig(bytes.NewReader(buf.Bytes()))
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
		_, err := ReadConfig(bytes.NewReader(bad))
		if err == nil {
			t.Fatalf("backend id %d accepted", id)
		}
		if !strings.Contains(err.Error(), wantIn) {
			t.Fatalf("backend id %d: error %q does not mention %q", id, err, wantIn)
		}
	}
}
