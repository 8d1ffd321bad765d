package core

import (
	"bytes"
	"testing"

	"mogul/internal/dataset"
	"mogul/internal/knn"
)

// buildPair builds two indexes over the same data, one f64 and one
// f32, from independently constructed graphs (NewIndex narrows the
// graph in place, so the f64 build needs its own copy).
func buildPair(t *testing.T, n int, exact bool) (*Index, *Index) {
	t.Helper()
	mk := func() *knn.Graph {
		ds := dataset.Mixture(dataset.MixtureConfig{
			N: n, Classes: 6, Dim: 8, WithinStd: 0.2, Separation: 2, Seed: 77,
		})
		g, err := knn.BuildGraph(ds.Points, knn.GraphConfig{K: 5})
		if err != nil {
			t.Fatalf("BuildGraph: %v", err)
		}
		return g
	}
	cfg := knn.GraphConfig{K: 5}
	f64ix, err := NewIndex(mk(), Options{Exact: exact, Graph: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	f32ix, err := NewIndex(mk(), Options{Exact: exact, Graph: &cfg, F32: true})
	if err != nil {
		t.Fatal(err)
	}
	return f64ix, f32ix
}

// TestF32SearchMatchesF64 checks that storage narrowing moves top-k
// membership only marginally: at this scale, rounding edge weights and
// factor values to float32 must keep at least 9 of each top-10.
func TestF32SearchMatchesF64(t *testing.T) {
	for _, exact := range []bool{false, true} {
		f64ix, f32ix := buildPair(t, 400, exact)
		if !f32ix.Factor().F32() || !f32ix.Graph().F32() {
			t.Fatal("F32 option did not narrow storage")
		}
		for _, q := range []int{0, 123, 399} {
			a, _, err := f64ix.Search(q, SearchOptions{K: 10})
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := f32ix.Search(q, SearchOptions{K: 10})
			if err != nil {
				t.Fatal(err)
			}
			want := map[int]bool{}
			for _, r := range a {
				want[r.Node] = true
			}
			hits := 0
			for _, r := range b {
				if want[r.Node] {
					hits++
				}
			}
			if hits < 9 {
				t.Fatalf("exact=%v query %d: only %d/10 top-10 overlap between f32 and f64", exact, q, hits)
			}
		}
		if _, _, err := f32ix.ExactScoresCG(5, 0); err != nil {
			t.Fatalf("CG on f32 index: %v", err)
		}
	}
}

// TestF32SerializationRoundTrip proves the v4 container round-trips an
// f32 index with bit-identical query behaviour, through both the
// streaming reader and the zero-copy bytes reader over the aligned
// layout, and that a re-save reproduces the file byte for byte.
func TestF32SerializationRoundTrip(t *testing.T) {
	_, bare := buildPair(t, 300, false)
	orig := newDyn(bare)
	if id, err := orig.Insert(orig.Graph().PointVec(4)); err != nil || id != 300 {
		t.Fatalf("Insert: id=%d err=%v", id, err)
	}
	if err := orig.Delete(7); err != nil {
		t.Fatal(err)
	}
	orig.ClearTimings()

	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := asDyn(ReadIndex(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}

	var abuf bytes.Buffer
	if _, err := orig.WriteToAligned(&abuf, 4096); err != nil {
		t.Fatal(err)
	}
	mapped, err := asDyn(ReadIndexBytes(abuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// The aligned stream must also load through the CRC-checked
	// streaming reader.
	streamed, err := asDyn(ReadIndex(bytes.NewReader(abuf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}

	for _, ld := range []*dyn{loaded, mapped, streamed} {
		if !ld.Factor().F32() || !ld.Graph().F32() {
			t.Fatal("precision flag lost across save/load")
		}
		if !ld.opts.F32 {
			t.Fatal("Options.F32 lost across save/load")
		}
		for _, q := range []int{0, 55, 299, 300} {
			a, ai, err := orig.Search(q, SearchOptions{K: 10})
			if err != nil {
				t.Fatal(err)
			}
			b, bi, err := ld.Search(q, SearchOptions{K: 10})
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("result count differs after load")
			}
			for i := range a {
				if a[i].Node != b[i].Node || a[i].Score != b[i].Score {
					t.Fatalf("query %d result %d differs after load: %+v vs %+v", q, i, a[i], b[i])
				}
			}
			if ai.ClustersPruned != bi.ClustersPruned {
				t.Fatalf("pruning differs after load: %d vs %d", ai.ClustersPruned, bi.ClustersPruned)
			}
		}
		q := orig.Graph().PointVec(3)
		a, _, err := orig.SearchOutOfSample(q, OOSOptions{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := ld.SearchOutOfSample(q, OOSOptions{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i].Node != b[i].Node || a[i].Score != b[i].Score {
				t.Fatalf("out-of-sample result %d differs after load", i)
			}
		}
	}

	// Determinism: saving the loaded index reproduces the bytes.
	loaded.ClearTimings()
	var buf2 bytes.Buffer
	if _, err := loaded.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("f32 save -> load -> save is not byte-stable")
	}
}
