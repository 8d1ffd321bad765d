package mogul

import (
	"bytes"
	"slices"
	"testing"
)

// TestLiveDeltaFollowsTombstones pins the header's live-delta list — what
// the EMR and spectral scans walk instead of every delta id — to the
// tombstones it mirrors: through inserts, deletes of delta and base
// items, a save and load, and compaction, on every engine.
func TestLiveDeltaFollowsTombstones(t *testing.T) {
	ds := NewMixture(MixtureConfig{N: 140, Classes: 4, Dim: 6, WithinStd: 0.4, Separation: 2.5, Seed: 17})
	header := func(e Retriever) *engineHeader {
		switch e := e.(type) {
		case *Index:
			return e.st.hdr()
		case *EMRIndex:
			return e.st.hdr()
		case *SpectralIndex:
			return e.st.hdr()
		}
		t.Fatalf("no header for %T", e)
		return nil
	}
	check := func(t *testing.T, stage string, e Retriever) {
		t.Helper()
		h := header(e)
		var want []int
		for i := h.baseN; i < h.numPoints(); i++ {
			if !h.dead[i] {
				want = append(want, i)
			}
		}
		if !slices.Equal(h.liveDelta, want) {
			t.Fatalf("%s: live delta %v, tombstones say %v", stage, h.liveDelta, want)
		}
	}
	for _, row := range lifecycleRows() {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			e, err := row.build(ds.Points[:100], Options{Seed: 17, Precision: row.prec})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range ds.Points[100:130] {
				if _, err := e.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
			check(t, "inserted", e)
			for _, id := range []int{100, 129, 3, 112, 115, 118, 121, 57} {
				if err := e.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			check(t, "deleted", e)
			var buf bytes.Buffer
			if err := e.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			check(t, "loaded", loaded)
			if err := e.Compact(); err != nil {
				t.Fatal(err)
			}
			check(t, "compacted", e)
		})
	}
}
