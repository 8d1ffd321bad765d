//go:build !race

package mogul

// Allocation-regression guards for the pooled query engine. The whole
// point of the engine refactor is that steady-state searches allocate
// nothing beyond the returned []Result; these tests pin that down with
// testing.AllocsPerRun so a regression fails CI instead of silently
// reintroducing O(n) per-query garbage. Excluded under the race
// detector, whose instrumentation changes allocation counts.

import (
	"testing"

	"mogul/internal/dataset"
	"mogul/internal/vec"
)

func allocFixture(t *testing.T) (*Index, *vec.Dataset) {
	t.Helper()
	ds := dataset.Mixture(dataset.MixtureConfig{
		N: 2100, Classes: 12, Dim: 16, WithinStd: 0.3, Separation: 2.5, Seed: 21,
	})
	ix, err := Build(ds.Points[:2000], Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ix, ds
}

// TestTopKAllocs: a steady-state in-database query allocates exactly
// once — the returned []Result — on both the dedicated-Searcher path
// and the internal-pool path.
func TestTopKAllocs(t *testing.T) {
	ix, _ := allocFixture(t)
	sr := ix.NewSearcher()
	if _, err := sr.TopK(11, 10); err != nil { // warm: sizes the scratch
		t.Fatal(err)
	}
	queries := []int{3, 500, 999, 1500}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := sr.TopK(queries[i%len(queries)], 10); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 1 {
		t.Fatalf("Searcher.TopK allocates %.1f objects/op in steady state, want 1 (the returned []Result)", allocs)
	}

	if _, err := ix.TopK(11, 10); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if _, err := ix.TopK(queries[i%len(queries)], 10); err != nil {
			t.Fatal(err)
		}
		i++
	})
	// The pooled path matches the Searcher path except when a GC clears
	// the pool mid-measurement; allow that rare refill without letting a
	// real per-query regression through.
	if allocs > 2 {
		t.Fatalf("Index.TopK allocates %.1f objects/op in steady state, want 1 (the returned []Result)", allocs)
	}
}

// TestTopKVectorAllocs: the out-of-sample fast path — coarse
// quantizer, surrogate selection, heat-kernel weighting, pruned search
// — also allocates only the returned []Result.
func TestTopKVectorAllocs(t *testing.T) {
	ix, ds := allocFixture(t)
	sr := ix.NewSearcher()
	pool := ds.Points[2000:]
	if _, err := sr.TopKVector(pool[0], 10); err != nil { // warm: scratch + lazy OOS tables
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := sr.TopKVector(pool[i%len(pool)], 10); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 1 {
		t.Fatalf("Searcher.TopKVector allocates %.1f objects/op in steady state, want 1 (the returned []Result)", allocs)
	}
}

// TestTopKAllocsWithDeltaAndTombstones: the zero-steady-state-
// allocation property must survive dynamic state — live delta items
// merged into every search and tombstones filtered through the dense
// bitset.
func TestTopKAllocsWithDeltaAndTombstones(t *testing.T) {
	ix, ds := allocFixture(t)
	for _, p := range ds.Points[2000:2050] {
		if _, err := ix.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int{5, 800, 1999, 2001} {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	sr := ix.NewSearcher()
	if _, err := sr.TopK(11, 10); err != nil {
		t.Fatal(err)
	}
	queries := []int{3, 500, 999, 2010} // includes a live delta item
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := sr.TopK(queries[i%len(queries)], 10); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 1 {
		t.Fatalf("Searcher.TopK with delta+tombstones allocates %.1f objects/op, want 1", allocs)
	}
}

// TestEngineAllocs: every engine's query path — the graph engine's
// pruned search with its delta merge, the EMR and spectral streaming
// scans (and the spectral epoch-stamped hop expansion, closed-ball solve
// included) — must run allocation-free in steady state: the returned
// []Result is the one allocation, on every query entry point of a warmed
// dedicated searcher and on the pooled path, with live delta items and
// tombstones in play. Insert is held to the stored copy of the vector
// plus amortised append growth on the EMR and spectral engines, whose
// attachment scratch lives on the engine; the graph engine also stores
// the item's surrogate, weight and cluster lists (three small slices).
func TestEngineAllocs(t *testing.T) {
	ds := dataset.Mixture(dataset.MixtureConfig{
		N: 2100, Classes: 100, Dim: 16, WithinStd: 0.3, Separation: 2.5, Seed: 21,
	})
	insertAllocs := map[string]float64{"graph": 4, "EMR": 1, "spectral": 1}
	builds := map[string]func() (Retriever, error){
		"graph": func() (Retriever, error) { return Build(ds.Points[:2000], Options{}) },
		"EMR": func() (Retriever, error) {
			return BuildEMR(ds.Points[:2000], Options{}, EMROptions{NumAnchors: 64})
		},
		"spectral": func() (Retriever, error) {
			return BuildSpectral(ds.Points[:2000], Options{}, SpectralOptions{Rank: 32})
		},
	}
	queries := []int{3, 500, 999, 2010} // includes a live delta item
	seedSets := [][]int{{3, 500, 2010}, {999, 7, 999, 12}, {2010}}
	pool := ds.Points[2050:]
	for name, build := range builds {
		e, err := build()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ds.Points[2000:2050] {
			if _, err := e.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range []int{5, 800, 1999, 2001} {
			if err := e.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		sr := e.NewQuerier()
		i := 0
		entryPoints := map[string]func() error{
			"TopK":       func() error { _, err := sr.TopK(queries[i%len(queries)], 10); return err },
			"TopKVector": func() error { _, err := sr.TopKVector(pool[i%len(pool)], 10); return err },
			"TopKSet":    func() error { _, err := sr.TopKSet(seedSets[i%len(seedSets)], 10); return err },
		}
		for entry, query := range entryPoints {
			if err := query(); err != nil { // warm: sizes the scratch
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(100, func() {
				if err := query(); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs > 1 {
				t.Errorf("%s searcher %s allocates %.1f objects/op in steady state, want 1 (the returned []Result)", name, entry, allocs)
			}
		}
		// The spectral rows above must have priced the closed-ball solve,
		// whose system lives on the searcher and grows only when a larger
		// ball than any before is admitted.
		if ss, ok := sr.(*SpectralSearcher); ok && len(ss.sys) == 0 {
			t.Errorf("no spectral query on this fixture solved its hop ball: the guard did not cover the solve's scratch")
		}

		if _, err := e.TopK(11, 10); err != nil { // warm the pool
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := e.TopK(queries[i%len(queries)], 10); err != nil {
				t.Fatal(err)
			}
			i++
		})
		// As with Index.TopK: a GC clearing the pool mid-measurement may
		// force one refill; a real per-query regression still fails.
		if allocs > 2 {
			t.Errorf("%s pooled TopK allocates %.1f objects/op in steady state, want 1 (the returned []Result)", name, allocs)
		}

		if _, err := e.Insert(pool[0]); err != nil { // warm: sizes the attach scratch
			t.Fatal(err)
		}
		allocs = testing.AllocsPerRun(100, func() {
			if _, err := e.Insert(pool[i%len(pool)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs > insertAllocs[name] {
			t.Errorf("%s Insert allocates %.1f objects/op, want %v (the stored vector, and the graph engine's three per-item lists; slice growth amortises away)", name, allocs, insertAllocs[name])
		}
	}
}

// TestTopKShardedAllocs: the fan-out over S shards must stay at S+1
// steady-state allocations — the S per-shard result slices plus the
// merged output — proving the fan-out runs entirely on the pinned
// per-shard Searchers and the reusable merge scratch. The id, vector
// and set flows are held to the same bound; a set query asks only the
// shards that own its seeds.
func TestTopKShardedAllocs(t *testing.T) {
	ds := dataset.Mixture(dataset.MixtureConfig{
		N: 2000, Classes: 12, Dim: 16, WithinStd: 0.3, Separation: 2.5, Seed: 21,
	})
	const shards = 4
	six, err := BuildSharded(ds.Points, Options{}, ShardOptions{Shards: shards, Partitioner: PartitionKMeans})
	if err != nil {
		t.Fatal(err)
	}
	ss := six.NewSearcher()
	queries := []int{3, 500, 999, 1500}
	sets := [][]int{{3, 500}, {999, 1500, 11}}
	for _, c := range []struct {
		name  string
		query func(i int) ([]Result, error)
	}{
		{"TopK", func(i int) ([]Result, error) { return ss.TopK(queries[i%len(queries)], 10) }},
		{"TopKVector", func(i int) ([]Result, error) { return ss.TopKVector(ds.Points[queries[i%len(queries)]], 10) }},
		{"TopKSet", func(i int) ([]Result, error) { return ss.TopKSet(sets[i%len(sets)], 10) }},
	} {
		if _, err := c.query(0); err != nil { // warm: sizes every shard's scratch
			t.Fatal(err)
		}
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := c.query(i); err != nil {
				t.Fatal(err)
			}
			i++
		})
		t.Logf("%s: %.1f allocs/op", c.name, allocs)
		if allocs > shards+1 {
			t.Fatalf("ShardedSearcher.%s allocates %.1f objects/op in steady state, want <= %d (S per-shard result slices + merged output)", c.name, allocs, shards+1)
		}
	}
}
