package mogul

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"mogul/internal/knn"
)

// Tests for the dynamic-update subsystem: online Insert/Delete via the
// out-of-sample delta layer, Compact, auto-compaction, persistence of
// dynamic state, and the metamorphic properties the design promises
// (Insert+Compact ≡ fresh Build; Save→Load→Insert ≡ Insert→Save→Load;
// TopKBatch ≡ sequential TopK).

// clusteredDataset is the synthetic clustered dataset the acceptance
// criteria reference: well-separated Gaussian classes, so Manifold
// Ranking has real cluster structure to exploit.
func clusteredDataset(t testing.TB, n int, seed int64) *Dataset {
	t.Helper()
	return NewMixture(MixtureConfig{
		N: n, Classes: 8, Dim: 12, WithinStd: 0.25, Separation: 3.0, Seed: seed,
	})
}

func sameResults(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Node != want[i].Node || got[i].Score != want[i].Score {
			t.Fatalf("%s: result %d is {%d, %.17g}, want {%d, %.17g}",
				label, i, got[i].Node, got[i].Score, want[i].Node, want[i].Score)
		}
	}
}

func TestInsertBecomesSearchable(t *testing.T) {
	ds := clusteredDataset(t, 300, 21)
	ix, err := Build(ds.Points[:299], Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Insert a near-duplicate of item 3: it must enter 3's top-k.
	v := ds.Points[299]
	copy(v, ds.Points[3])
	id, err := ix.Insert(v)
	if err != nil {
		t.Fatal(err)
	}
	if id != 299 {
		t.Fatalf("first insert got id %d, want 299", id)
	}
	if ix.Len() != 300 {
		t.Fatalf("Len after insert: %d", ix.Len())
	}
	res, err := ix.TopK(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res {
		if r.Node == id {
			found = true
			if r.Score <= 0 {
				t.Fatalf("inserted duplicate scored %g", r.Score)
			}
		}
	}
	if !found {
		t.Fatalf("inserted duplicate of item 3 missing from TopK(3): %v", res)
	}

	// The inserted item also works as a query, ranking its own
	// neighbourhood first.
	res, err = ix.TopK(id, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("delta query returned %d results", len(res))
	}

	// And competes in out-of-sample searches.
	res, err = ix.TopKVector(ds.Points[3], 10)
	if err != nil {
		t.Fatal(err)
	}
	found = false
	for _, r := range res {
		found = found || r.Node == id
	}
	if !found {
		t.Fatal("inserted item missing from TopKVector results")
	}

	// Dimension mismatch and non-finite components error.
	if _, err := ix.Insert(Vector{1, 2}); err == nil {
		t.Fatal("wrong-dimension insert accepted")
	}
	bad := ds.Points[0].Clone()
	bad[1] = math.NaN()
	if _, err := ix.Insert(bad); err == nil {
		t.Fatal("NaN insert accepted")
	}
	bad[1] = math.Inf(1)
	if _, err := ix.Insert(bad); err == nil {
		t.Fatal("Inf insert accepted")
	}
}

func TestDeleteSemantics(t *testing.T) {
	ds := clusteredDataset(t, 200, 5)
	ix, err := Build(ds.Points[:190], Options{})
	if err != nil {
		t.Fatal(err)
	}
	var deltaIDs []int
	for _, p := range ds.Points[190:] {
		id, err := ix.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		deltaIDs = append(deltaIDs, id)
	}

	// Delete one base and one delta item.
	for _, id := range []int{7, deltaIDs[2]} {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
		// Gone from large searches...
		res, err := ix.TopK(0, ix.Len()+5)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.Node == id {
				t.Fatalf("deleted item %d still in TopK results", id)
			}
		}
		// ...rejected as a query...
		if _, err := ix.TopK(id, 3); err == nil {
			t.Fatalf("deleted item %d accepted as query", id)
		}
		// ...and gone from Neighbors.
		if _, _, err := ix.Neighbors(id); err == nil {
			t.Fatalf("Neighbors served deleted item %d", id)
		}
		// Double delete errors.
		if err := ix.Delete(id); err == nil {
			t.Fatalf("double delete of %d accepted", id)
		}
	}
	if ix.Len() != 198 {
		t.Fatalf("Len after two deletes: %d, want 198", ix.Len())
	}
	st := ix.Delta()
	if st.BaseItems != 190 || st.DeltaItems != 9 || st.Tombstones != 2 {
		t.Fatalf("Delta stats: %+v", st)
	}

	// Deleted base items vanish from surviving items' neighbour lists.
	ids, _, err := ix.Neighbors(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range ids {
		if nb == 7 {
			t.Fatal("deleted item listed as neighbour")
		}
	}

	// Out-of-range deletes error.
	if err := ix.Delete(-1); err == nil {
		t.Fatal("negative id accepted")
	}
	if err := ix.Delete(10_000); err == nil {
		t.Fatal("out-of-range id accepted")
	}
}

func TestDeleteLastItemRefused(t *testing.T) {
	ds := clusteredDataset(t, 10, 3)
	ix, err := Build(ds.Points, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := ix.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Delete(9); err == nil {
		t.Fatal("deleting the last live item accepted")
	}
	res, err := ix.TopK(9, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Node != 9 {
		t.Fatalf("single-survivor search: %v", res)
	}
}

// TestInsertCompactMatchesBuild is the determinism acceptance
// criterion: Insert-then-Compact must be bit-identical — ids and
// float scores — to a fresh Build over the merged point set with the
// same seed.
func TestInsertCompactMatchesBuild(t *testing.T) {
	ds := clusteredDataset(t, 420, 11)
	base, inserts := ds.Points[:400], ds.Points[400:]
	opts := Options{GraphK: 5, Seed: 3}

	dyn, err := Build(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range inserts {
		if _, err := dyn.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := dyn.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := dyn.Delta(); st.DeltaItems != 0 || st.Tombstones != 0 || st.BaseItems != 420 {
		t.Fatalf("delta not empty after compact: %+v", st)
	}

	fresh, err := Build(ds.Points, opts)
	if err != nil {
		t.Fatal(err)
	}

	ds1, ds2 := dyn.Stats(), fresh.Stats()
	if ds1.NumClusters != ds2.NumClusters || ds1.FactorNNZ != ds2.FactorNNZ ||
		ds1.BorderSize != ds2.BorderSize || ds1.NumEdges != ds2.NumEdges {
		t.Fatalf("structural stats differ: compacted %+v, fresh %+v", ds1, ds2)
	}
	for q := 0; q < 420; q += 7 {
		a, err := dyn.TopK(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.TopK(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("TopK(%d)", q), a, b)
	}
	// Out-of-sample queries agree bit-for-bit too.
	q := ds.Points[17].Clone()
	q[0] += 0.05
	a, err := dyn.TopKVector(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.TopKVector(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "TopKVector", a, b)
}

// TestInsertRecall is the accuracy acceptance criterion: after
// inserting 5% new points through the delta layer, TopK recall@10
// against a full rebuild stays at 0.9 or above.
func TestInsertRecall(t *testing.T) {
	ds := clusteredDataset(t, 840, 29)
	n := 800
	base, inserts := ds.Points[:n], ds.Points[n:] // 5% of n

	dyn, err := Build(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range inserts {
		if _, err := dyn.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	rebuilt, err := Build(ds.Points, Options{})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	const k = 10
	var recall float64
	const queries = 100
	for i := 0; i < queries; i++ {
		q := rng.Intn(n)
		got, err := dyn.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := rebuilt.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		wantSet := make(map[int]bool, k)
		for _, r := range want {
			wantSet[r.Node] = true
		}
		hit := 0
		for _, r := range got {
			if wantSet[r.Node] {
				hit++
			}
		}
		recall += float64(hit) / float64(k)
	}
	recall /= queries
	t.Logf("recall@10 with 5%% delta vs full rebuild: %.3f", recall)
	if recall < 0.9 {
		t.Fatalf("recall@10 = %.3f, want >= 0.9", recall)
	}
}

// TestTopKBatchMatchesSequentialWithDelta is the batch metamorphic
// property on a dynamic index: concurrent TopKBatch over a random
// query set (base and delta ids mixed) equals sequential TopK.
func TestTopKBatchMatchesSequentialWithDelta(t *testing.T) {
	ds := clusteredDataset(t, 320, 13)
	ix, err := Build(ds.Points[:300], Options{})
	if err != nil {
		t.Fatal(err)
	}
	var deltaIDs []int
	for _, p := range ds.Points[300:] {
		id, err := ix.Insert(p)
		if err != nil {
			t.Fatal(err)
		}
		deltaIDs = append(deltaIDs, id)
	}
	if err := ix.Delete(4); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(deltaIDs[0]); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	queries := make([]int, 64)
	for i := range queries {
		if i%5 == 0 {
			queries[i] = deltaIDs[1+rng.Intn(len(deltaIDs)-1)]
		} else {
			queries[i] = rng.Intn(300)
			if queries[i] == 4 {
				queries[i] = 5
			}
		}
	}
	batch := ix.TopKBatch(queries, 7, 4)
	for i, br := range batch {
		if br.Err != nil {
			t.Fatalf("batch query %d: %v", queries[i], br.Err)
		}
		seq, err := ix.TopK(queries[i], 7)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("batch query %d", queries[i]), br.Results, seq)
	}
	// Deleted ids fail per-query, not batch-wide.
	bad := ix.TopKBatch([]int{4, 5}, 3, 2)
	if bad[0].Err == nil {
		t.Fatal("deleted id succeeded in batch")
	}
	if bad[1].Err != nil {
		t.Fatalf("valid id failed in batch: %v", bad[1].Err)
	}
}

// TestSaveLoadInsertCommutes is the persistence metamorphic property:
// inserting after a save/load round trip gives bit-identical results
// to saving/loading after the inserts — the delta layer (and the
// quantizer that computes surrogates) round-trips exactly.
func TestSaveLoadInsertCommutes(t *testing.T) {
	ds := clusteredDataset(t, 330, 17)
	base, extra := ds.Points[:300], ds.Points[300:]
	opts := Options{Seed: 2}

	build := func() *Index {
		ix, err := Build(base, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	roundTrip := func(ix *Index) *Index {
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatal(err)
		}
		out, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		// Load dispatches on the magic header; a plain file always
		// yields the concrete *Index.
		return out.(*Index)
	}
	insertAll := func(ix *Index) {
		for _, p := range extra {
			if _, err := ix.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := ix.Delete(9); err != nil {
			t.Fatal(err)
		}
		if err := ix.Delete(305); err != nil {
			t.Fatal(err)
		}
	}

	a := build() // Save -> Load -> Insert
	a = roundTrip(a)
	insertAll(a)

	b := build() // Insert -> Save -> Load
	insertAll(b)
	b = roundTrip(b)

	if sa, sb := a.Delta(), b.Delta(); sa != sb {
		t.Fatalf("delta stats differ: %+v vs %+v", sa, sb)
	}
	for q := 0; q < a.Len(); q += 13 {
		if q == 9 || q == 305 {
			continue
		}
		ra, err := a.TopK(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.TopK(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("TopK(%d)", q), ra, rb)
	}
	va, err := a.TopKVector(ds.Points[301], 8)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := b.TopKVector(ds.Points[301], 8)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "TopKVector", va, vb)

	// Both sides still compact (the build recipe round-tripped), and
	// agree afterwards.
	if err := a.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	ra, err := a.TopK(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.TopK(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "post-compact TopK", ra, rb)
}

func TestAutoCompact(t *testing.T) {
	ds := clusteredDataset(t, 230, 41)
	n := 200
	ix, err := Build(ds.Points[:n], Options{AutoCompactFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// The delta tolerates floor(0.05*200) = 10 pending entries; the
	// 11th insert must trigger a compaction that folds everything in.
	for i := 0; i < 11; i++ {
		if _, err := ix.Insert(ds.Points[n+i]); err != nil {
			t.Fatal(err)
		}
	}
	if st := ix.Delta(); st.DeltaItems != 0 || st.BaseItems != 211 {
		t.Fatalf("auto-compaction did not run: %+v", st)
	}
	if ix.Len() != 211 {
		t.Fatalf("Len after auto-compaction: %d", ix.Len())
	}
	// Insert-only auto-compaction keeps ids: the compacted index is
	// bit-identical to a fresh build over the same 211 points.
	fresh, err := Build(ds.Points[:211], Options{AutoCompactFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 211; q += 17 {
		a, err := ix.TopK(q, 6)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.TopK(q, 6)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("TopK(%d)", q), a, b)
	}
}

// TestCompactUnavailableForExternalGraph: an index wrapped around a
// caller-built graph has no recorded rebuild recipe — Insert/Delete
// work, Compact refuses.
// TestAutoCompactAfterDeleteReturnsRenumberedID: when an insert
// triggers a compaction that renumbers (because deletions are being
// folded in), the returned id must refer to the inserted point in the
// new numbering — the youngest live item.
func TestAutoCompactAfterDeleteReturnsRenumberedID(t *testing.T) {
	ds := clusteredDataset(t, 120, 47)
	n := 100
	ix, err := Build(ds.Points[:n], Options{AutoCompactFraction: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(5); err != nil {
		t.Fatal(err)
	}
	// pending = 1 insert + 1 tombstone > 0.01*100, so this insert
	// compacts: 99 survivors renumbered, the new point last.
	marker := ds.Points[n].Clone()
	id, err := ix.Insert(marker)
	if err != nil {
		t.Fatal(err)
	}
	if st := ix.Delta(); st.DeltaItems != 0 || st.Tombstones != 0 {
		t.Fatalf("auto-compaction did not run: %+v", st)
	}
	if want := ix.Len() - 1; id != want {
		t.Fatalf("insert returned id %d, want renumbered id %d", id, want)
	}
	// The id really is the inserted point: the compacted base stores
	// the marker vector under it.
	pts := ix.st.base.Graph().Points
	for j := range marker {
		if pts[id][j] != marker[j] {
			t.Fatalf("item %d holds %v, inserted %v", id, pts[id], marker)
		}
	}
}

func TestCompactUnavailableForExternalGraph(t *testing.T) {
	ds := clusteredDataset(t, 60, 8)
	g, err := knn.BuildGraph(ds.Points, knn.GraphConfig{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := BuildFromGraphPoints(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Insert(ds.Points[0].Clone()); err != nil {
		t.Fatalf("insert on external-graph index: %v", err)
	}
	if err := ix.Delete(0); err != nil {
		t.Fatalf("delete on external-graph index: %v", err)
	}
	if err := ix.Compact(); err == nil {
		t.Fatal("Compact succeeded without a graph recipe")
	}
}

// TestConcurrentInsertDeleteSearch is the race-detector stress test
// the acceptance criteria require: concurrent Insert, Delete,
// TopKBatch, TopKVector and a mid-flight Compact on one index. Run
// with -race in CI.
func TestConcurrentInsertDeleteSearch(t *testing.T) {
	ds := clusteredDataset(t, 360, 53)
	n := 300
	ix, err := Build(ds.Points[:n], Options{})
	if err != nil {
		t.Fatal(err)
	}

	var (
		wg       sync.WaitGroup
		inserted atomic.Int64
		deleted  atomic.Int64
	)

	// Two inserters.
	pool := ds.Points[n:]
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pool); i += 2 {
				if _, err := ix.Insert(pool[i]); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				inserted.Add(1)
			}
		}(w)
	}

	// One deleter over distinct base ids (no contention on the same id,
	// so every delete must succeed).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for id := 0; id < 20; id++ {
			if err := ix.Delete(id); err != nil {
				t.Errorf("delete %d: %v", id, err)
				return
			}
			deleted.Add(1)
		}
	}()

	// Four searchers: batch in-database, vector, and single queries. The
	// racing Compact may renumber at any moment, down to n-20 ids if the
	// deleter has run ahead of the inserters, so the query ids stay in
	// [20, n-20): base items no one deletes before it, in range after it.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 30; i++ {
				switch i % 3 {
				case 0:
					queries := make([]int, 8)
					for j := range queries {
						queries[j] = 20 + rng.Intn(n-40)
					}
					for _, br := range ix.TopKBatch(queries, 5, 2) {
						if br.Err != nil {
							t.Errorf("batch: %v", br.Err)
							return
						}
					}
				case 1:
					if _, err := ix.TopKVector(ds.Points[rng.Intn(n)], 5); err != nil {
						t.Errorf("vector search: %v", err)
						return
					}
				default:
					if _, err := ix.TopK(20+rng.Intn(n-40), 5); err != nil {
						t.Errorf("search: %v", err)
						return
					}
				}
			}
		}(w)
	}

	// One compaction racing the rest.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := ix.Compact(); err != nil {
			t.Errorf("compact: %v", err)
		}
	}()

	wg.Wait()
	if t.Failed() {
		return
	}

	// The index is consistent afterwards: compact the remainder and
	// count the survivors.
	if err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	want := n + int(inserted.Load()) - int(deleted.Load())
	if ix.Len() != want {
		t.Fatalf("Len after stress: %d, want %d", ix.Len(), want)
	}
	if st := ix.Delta(); st.DeltaItems != 0 || st.Tombstones != 0 {
		t.Fatalf("delta not drained: %+v", st)
	}
	if _, err := ix.TopK(0, 10); err != nil {
		t.Fatal(err)
	}
}

// TestDynamicIndexFileCorruption sweeps truncations and byte flips
// over a saved dynamic index (delta points, tombstones, build config):
// every corruption must surface as an error, never a panic or a
// silently wrong index.
func TestDynamicIndexFileCorruption(t *testing.T) {
	ds := clusteredDataset(t, 120, 71)
	ix, err := Build(ds.Points[:110], Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ds.Points[110:] {
		if _, err := ix.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Delete(2); err != nil {
		t.Fatal(err)
	}
	if err := ix.Delete(112); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
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
	for n := 0; n < len(data); n += 97 {
		tryLoad(fmt.Sprintf("truncation to %d bytes", n), data[:n])
	}
	for pos := 0; pos < len(data); pos += 53 {
		mutated := append([]byte(nil), data...)
		mutated[pos] ^= 0xFF
		tryLoad(fmt.Sprintf("corruption at byte %d", pos), mutated)
	}
}

// TestDeltaScoreExtension pins the scoring model: a delta point's
// score for a query equals the weighted sum of its surrogates' scores
// (the symmetric out-of-sample extension).
func TestDeltaScoreExtension(t *testing.T) {
	ds := clusteredDataset(t, 150, 61)
	ix, err := Build(ds.Points[:149], Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, err := ix.Insert(ds.Points[149])
	if err != nil {
		t.Fatal(err)
	}
	probes, weights, err := ix.Neighbors(id)
	if err != nil {
		t.Fatal(err)
	}
	const query = 31
	scores, err := ix.Scores(query)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for j, p := range probes {
		want += weights[j] * scores[p]
	}
	res, err := ix.TopK(query, ix.Len())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Node == id {
			if math.Abs(r.Score-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Fatalf("delta score %.17g, extension predicts %.17g", r.Score, want)
			}
			return
		}
	}
	t.Fatal("inserted item missing from exhaustive TopK")
}
