package mogul

// One lifecycle contract for every engine built on the shared engine
// lifecycle (engine.go): version accounting, id stability, tombstones,
// delta accounting, auto-compaction, and precision preservation are the
// same code for the graph, EMR and spectral engines, so they are pinned
// by the same table.

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// lifecycleEngine is the surface the lifecycle contract speaks to:
// Retriever plus the shard-facing accessors and the replication log
// every engine exposes.
type lifecycleEngine interface {
	Retriever
	Precision() Precision
	IDSpace() int
	Alive(id int) bool
	TopKWithVector(query, k int) ([]Result, Vector, float64, error)
	TopKVectorWithAffinity(q Vector, k int) ([]Result, float64, error)
	TopKSetWeighted(seeds []int, weight float64, k int) ([]Result, error)
	EntriesSince(since uint64) ([]LogEntry, bool)
	TruncateEntries(upTo uint64)
	LogLen() int
}

type lifecycleRow struct {
	name  string
	build func(points []Vector, opts Options) (lifecycleEngine, error)
	prec  Precision
	// selfFirst: an inserted item ranks first for itself.
	selfFirst bool
	// graph: the paper's engine — it has an item-level neighbour surface,
	// and in F32 mode keeps inserted vectors in float64 until Compact
	// narrows them into the next base.
	graph bool
}

func lifecycleRows() []lifecycleRow {
	graph := func(points []Vector, opts Options) (lifecycleEngine, error) { return Build(points, opts) }
	emr := func(points []Vector, opts Options) (lifecycleEngine, error) {
		return BuildEMR(points, opts, EMROptions{NumAnchors: 16, NumNearestAnchors: 4})
	}
	spc := func(points []Vector, opts Options) (lifecycleEngine, error) {
		return BuildSpectral(points, opts, SpectralOptions{Rank: 12})
	}
	return []lifecycleRow{
		{"graph/F64", graph, F64, false, true}, {"graph/F32", graph, F32, false, true},
		{"EMR/F64", emr, F64, true, false}, {"EMR/F32", emr, F32, true, false},
		{"spectral/F64", spc, F64, false, false}, {"spectral/F32", spc, F32, false, false},
	}
}

func TestEngineLifecycle(t *testing.T) {
	ds := NewMixture(MixtureConfig{N: 140, Classes: 4, Dim: 6, WithinStd: 0.4, Separation: 2.5, Seed: 13})
	for _, row := range lifecycleRows() {
		opts := Options{Seed: 13, Precision: row.prec}
		mustBuild := func(t *testing.T, points []Vector, opts Options) lifecycleEngine {
			t.Helper()
			e, err := row.build(points, opts)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}

		t.Run(row.name+"/versions-and-ids", func(t *testing.T) {
			e := mustBuild(t, ds.Points[:120], opts)
			wantVersion := uint64(1)
			checkVersion := func(after string) {
				t.Helper()
				if v := e.Version(); v != wantVersion {
					t.Fatalf("Version after %s = %d, want %d", after, v, wantVersion)
				}
			}
			checkVersion("build")
			if err := e.Compact(); err != nil {
				t.Fatal(err)
			}
			checkVersion("no-op Compact")

			// Inserted ids continue the id space; the item is immediately
			// searchable and answers as itself.
			for i := 0; i < 3; i++ {
				id, err := e.Insert(ds.Points[120+i])
				if err != nil {
					t.Fatal(err)
				}
				if id != 120+i {
					t.Fatalf("insert %d got id %d, want %d", i, id, 120+i)
				}
				wantVersion++
				checkVersion("Insert")
				res, err := e.TopK(id, 5)
				if err != nil {
					t.Fatal(err)
				}
				// EMR scores an item against its own H column, so it leads
				// its own ranking; a graph or spectral delta item is scored
				// through its surrogates and only has to answer.
				if row.selfFirst && res[0].Node != id {
					t.Fatalf("inserted item %d does not rank first for itself: %+v", id, res[0])
				}
			}

			// One base and one delta tombstone: ids stay put, the id space
			// keeps its size, and refused mutations do not bump the version.
			for _, id := range []int{7, 121} {
				if err := e.Delete(id); err != nil {
					t.Fatal(err)
				}
				wantVersion++
				checkVersion("Delete")
				if err := e.Delete(id); err == nil {
					t.Fatalf("double delete of %d accepted", id)
				}
			}
			if err := e.Delete(123); err == nil {
				t.Fatal("delete of an out-of-range id accepted")
			}
			if _, err := e.Insert(Vector{1, 2}); err == nil {
				t.Fatal("wrong-dimension insert accepted")
			}
			checkVersion("refused mutations")
			if e.Len() != 121 || e.IDSpace() != 123 {
				t.Fatalf("Len/IDSpace = %d/%d, want 121/123", e.Len(), e.IDSpace())
			}
			if d := e.Delta(); d.BaseItems != 120 || d.DeltaItems != 2 || d.Tombstones != 2 {
				t.Fatalf("Delta = %+v, want 120 base / 2 delta / 2 tombstones", d)
			}

			// No tombstoned id is ever returned or accepted as a query, on
			// any entry point.
			for _, dead := range []int{7, 121} {
				if e.Alive(dead) {
					t.Fatalf("tombstoned id %d reported alive", dead)
				}
				if _, err := e.TopK(dead, 5); err == nil {
					t.Fatalf("TopK accepted tombstoned id %d", dead)
				}
				if _, _, err := e.TopKWithInfo(dead, 5); err == nil {
					t.Fatalf("TopKWithInfo accepted tombstoned id %d", dead)
				}
				if _, err := e.TopKSet([]int{0, dead}, 5); err == nil {
					t.Fatalf("TopKSet accepted tombstoned id %d", dead)
				}
				if _, err := e.TopKSetWeighted([]int{dead}, 1, 5); err == nil {
					t.Fatalf("TopKSetWeighted accepted tombstoned id %d", dead)
				}
				if _, _, _, err := e.TopKWithVector(dead, 5); err == nil {
					t.Fatalf("TopKWithVector accepted tombstoned id %d", dead)
				}
			}
			full, err := e.TopK(0, e.IDSpace())
			if err != nil {
				t.Fatal(err)
			}
			if len(full) != e.Len() {
				t.Fatalf("full ranking has %d items, want the %d live ones", len(full), e.Len())
			}
			for _, r := range full {
				if !e.Alive(r.Node) {
					t.Fatalf("tombstoned id %d appeared in results", r.Node)
				}
			}
			vfull, _, err := e.TopKVectorWithAffinity(ds.Points[130], e.IDSpace())
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range vfull {
				if !e.Alive(r.Node) {
					t.Fatalf("tombstoned id %d appeared in out-of-sample results", r.Node)
				}
			}

			// The owner-shard read returns the queried item's own vector.
			_, qvec, _, err := e.TopKWithVector(122, 5)
			if err != nil {
				t.Fatal(err)
			}
			for d, x := range ds.Points[122] {
				want := x
				if row.prec == F32 && !row.graph {
					want = float64(float32(x))
				}
				if qvec[d] != want {
					t.Fatalf("TopKWithVector vector[%d] = %g, want %g", d, qvec[d], want)
				}
			}

			// Argument errors.
			if _, err := e.TopK(0, 0); err == nil {
				t.Fatal("k=0 accepted")
			}
			if _, err := e.TopK(-1, 5); err == nil {
				t.Fatal("negative query accepted")
			}
			if _, err := e.TopKVector(Vector{1, 2}, 5); err == nil {
				t.Fatal("wrong-dimension vector accepted")
			}
			if _, err := e.TopKSet(nil, 5); err == nil {
				t.Fatal("empty seed set accepted")
			}
			if _, _, err := e.Neighbors(0); (err == nil) != row.graph {
				t.Fatalf("Neighbors availability: err = %v, want available = %v", err, row.graph)
			}

			// Compact renumbers contiguously, keeps the precision, and
			// bumps the version exactly once.
			if err := e.Compact(); err != nil {
				t.Fatal(err)
			}
			wantVersion++
			checkVersion("Compact")
			if e.Len() != 121 || e.IDSpace() != 121 {
				t.Fatalf("Len/IDSpace after Compact = %d/%d, want 121/121", e.Len(), e.IDSpace())
			}
			for id := 0; id < 121; id++ {
				if !e.Alive(id) {
					t.Fatalf("id %d not alive after Compact", id)
				}
			}
			if d := e.Delta(); d.BaseItems != 121 || d.DeltaItems != 0 || d.Tombstones != 0 {
				t.Fatalf("Delta after Compact = %+v", d)
			}
			if got := e.Precision(); got != row.prec {
				t.Fatalf("Precision after Compact = %v, want %v", got, row.prec)
			}
			if _, err := e.TopK(120, 5); err != nil {
				t.Fatalf("last renumbered id refused: %v", err)
			}
		})

		t.Run(row.name+"/auto-compact", func(t *testing.T) {
			// Base 100 at fraction 0.1: the 11th insert crosses the
			// threshold, and that one Insert bumps the version twice.
			ac := opts
			ac.AutoCompactFraction = 0.1
			e := mustBuild(t, ds.Points[:100], ac)
			for i := 0; i < 11; i++ {
				before := e.Version()
				if _, err := e.Insert(ds.Points[100+i]); err != nil {
					t.Fatal(err)
				}
				want := before + 1
				if i == 10 {
					want++
				}
				if v := e.Version(); v != want {
					t.Fatalf("Version after insert %d = %d, want %d", i, v, want)
				}
			}
			if d := e.Delta(); d.BaseItems != 111 || d.DeltaItems != 0 || d.Tombstones != 0 {
				t.Fatalf("Delta after auto-compact = %+v", d)
			}
			if got := e.Precision(); got != row.prec {
				t.Fatalf("Precision after auto-compact = %v, want %v", got, row.prec)
			}
		})

		t.Run(row.name+"/auto-compact-renumbers", func(t *testing.T) {
			// Base 100 with 5 base tombstones at fraction 0.1: the 6th insert
			// makes the pending work 11 > 10 and compacts, which renumbers
			// (95 survivors, then the 6 inserted). The id Insert returns
			// must be the item's id in the new numbering — the last one —
			// while the log entry keeps the one stamped before.
			ac := opts
			ac.AutoCompactFraction = 0.1
			e := mustBuild(t, ds.Points[:100], ac)
			for id := 10; id < 15; id++ {
				if err := e.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			var id int
			for i := 0; i < 6; i++ {
				var err error
				if id, err = e.Insert(ds.Points[100+i]); err != nil {
					t.Fatal(err)
				}
			}
			if d := e.Delta(); d.BaseItems != 101 || d.DeltaItems != 0 || d.Tombstones != 0 {
				t.Fatalf("the 6th insert did not compact: %+v", d)
			}
			if id != 100 || !e.Alive(id) || id >= e.IDSpace() {
				t.Fatalf("Insert returned id %d (alive %v) in an id space of %d, want the renumbered 100", id, e.Alive(id), e.IDSpace())
			}
			res, err := e.TopK(id, 1)
			if err != nil || res[0].Node != id {
				t.Fatalf("TopK(%d, 1) = %v, %v; the item must rank first for itself", id, res, err)
			}
			entries, _ := e.EntriesSince(e.Version() - 2)
			if len(entries) != 2 || entries[0].Op != OpInsert || entries[0].ID != 105 || entries[1].Op != OpCompact {
				t.Fatalf("log tail = %+v, want the insert under its pre-renumbering id 105, then the compaction", entries)
			}
		})

		t.Run(row.name+"/deleted-delta-counts-once", func(t *testing.T) {
			// A deleted delta item is one unit of pending compaction work
			// (it is already counted as an inserted item), so churny
			// insert-then-delete workloads must not trip the threshold at
			// half its nominal value.
			ac := opts
			ac.AutoCompactFraction = 0.5
			e := mustBuild(t, ds.Points[:100], ac)
			// 30 inserts then 30 deletes of those same delta items: pending
			// work is 30 (not 60), under the threshold of 50.
			for _, p := range ds.Points[100:130] {
				if _, err := e.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
			for id := 100; id < 130; id++ {
				if err := e.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			if d := e.Delta(); d.BaseItems != 100 || d.DeltaItems != 0 || d.Tombstones != 30 {
				t.Fatalf("churny delta workload miscounted or compacted early: %+v", d)
			}
			// 21 base deletions push pending to 30+21=51 > 50: now it
			// compacts, leaving 79 live base items and a clean delta.
			for id := 0; id < 21; id++ {
				if err := e.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			if d := e.Delta(); d.BaseItems != 79 || d.DeltaItems != 0 || d.Tombstones != 0 {
				t.Fatalf("base tombstones past the threshold did not compact: %+v", d)
			}
		})

		t.Run(row.name+"/last-live-item", func(t *testing.T) {
			e := mustBuild(t, ds.Points[:3], opts)
			if err := e.Delete(0); err != nil {
				t.Fatal(err)
			}
			if err := e.Delete(1); err != nil {
				t.Fatal(err)
			}
			v := e.Version()
			if err := e.Delete(2); err == nil {
				t.Fatal("deleted the last live item")
			}
			if e.Version() != v || e.Len() != 1 {
				t.Fatalf("refused delete changed state: version %d -> %d, Len %d", v, e.Version(), e.Len())
			}
		})
	}
}

// TestEngineConcurrentQueryMutate hammers one engine from many
// goroutines — every query entry point, on pooled scratch, racing
// Insert/Delete/Compact — and checks nothing tears. Run under -race
// (the CI race job does); TopKWithVector is in the mix because it reads
// results, the stored vector and the affinity, which must all come from
// one state.
func TestEngineConcurrentQueryMutate(t *testing.T) {
	ds := NewMixture(MixtureConfig{N: 400, Classes: 6, Dim: 8, WithinStd: 0.4, Separation: 2.5, Seed: 23})
	for _, row := range lifecycleRows() {
		if row.prec != F64 {
			continue
		}
		t.Run(row.name, func(t *testing.T) {
			e, err := row.build(ds.Points[:300], Options{Seed: 23})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						// Ids may be tombstoned or (after Compact) renumbered
						// away concurrently, so id queries may fail; panics,
						// races and torn answers are the bugs.
						q := rng.Intn(280)
						var res []Result
						var err error
						switch rng.Intn(7) {
						case 0:
							res, err = e.TopK(q, 10)
						case 1:
							res, err = e.TopKVector(ds.Points[300+rng.Intn(100)], 10)
							if err != nil {
								t.Errorf("TopKVector: %v", err)
								return
							}
						case 2:
							res, err = e.TopKSet([]int{rng.Intn(100), rng.Intn(100)}, 10)
						case 3:
							res, _, err = e.TopKWithInfo(q, 10)
						case 4:
							var qvec Vector
							res, qvec, _, err = e.TopKWithVector(q, 10)
							if err == nil && len(qvec) != 8 {
								t.Errorf("TopKWithVector returned a %d-dim vector", len(qvec))
								return
							}
						case 5:
							res, _, err = e.TopKVectorWithAffinity(ds.Points[300+rng.Intn(100)], 10)
						case 6:
							res, err = e.TopKSetWeighted([]int{q}, 1, 10)
						}
						if err == nil && len(res) != 10 {
							t.Errorf("%d results from a live engine, want 10", len(res))
							return
						}
					}
				}(w)
			}
			// Mutations race the searches.
			for i := 0; i < 30; i++ {
				if _, err := e.Insert(ds.Points[300+i%100]); err != nil {
					t.Fatal(err)
				}
				if i%7 == 0 {
					_ = e.Delete(i) // may legitimately fail after renumbering
				}
				if i%11 == 0 {
					if err := e.Compact(); err != nil {
						t.Fatal(err)
					}
				}
			}
			close(stop)
			wg.Wait()
			if _, err := e.TopK(0, 5); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// spyBackend wraps an engine's backend to fail its builds on demand and
// to report which of the engine's locks each half of an Insert runs
// under.
type spyBackend[S engineState] struct {
	backend[S]
	eng       *engine[S]
	failBuild bool
	// attachShared / commitExclusive record that attach ran with mu free
	// for readers and commit with mu held for writing.
	attachShared, commitExclusive bool
}

func (b *spyBackend[S]) build(points []Vector, f32 bool) (S, error) {
	if b.failBuild {
		var zero S
		return zero, errors.New("spy: build fails")
	}
	return b.backend.build(points, f32)
}

func (b *spyBackend[S]) attach(st S, v Vector) error {
	if b.attachShared = b.eng.mu.TryRLock(); b.attachShared {
		b.eng.mu.RUnlock()
	}
	return b.backend.attach(st, v)
}

func (b *spyBackend[S]) commit(st S) {
	if b.commitExclusive = !b.eng.mu.TryRLock(); !b.commitExclusive {
		b.eng.mu.RUnlock()
	}
	b.backend.commit(st)
}

// TestInsertSurvivesFailedAutoCompact: an Insert whose item was stored
// reports success even when the auto-compaction it triggered fails (the
// swap happens only on success, so the engine stays consistent); an
// explicit Compact surfaces the error, and the next mutation retries.
// It also pins the lock split of an Insert: the attachment is computed
// with searches free to run, only the appends exclude them.
func TestInsertSurvivesFailedAutoCompact(t *testing.T) {
	ds := NewMixture(MixtureConfig{N: 130, Classes: 4, Dim: 6, WithinStd: 0.4, Separation: 2.5, Seed: 13})
	e, err := BuildSpectral(ds.Points[:100], Options{Seed: 13, AutoCompactFraction: 0.1}, SpectralOptions{Rank: 12})
	if err != nil {
		t.Fatal(err)
	}
	spy := &spyBackend[*spectralState]{backend: e.be, eng: &e.engine, failBuild: true}
	e.be = spy
	for i := 0; i < 11; i++ { // the 11th crosses the threshold
		before := e.Version()
		id, err := e.Insert(ds.Points[100+i])
		if err != nil || id != 100+i || !e.Alive(id) {
			t.Fatalf("insert %d with a failing compaction behind it: id %d, alive %v, err %v", i, id, e.Alive(id), err)
		}
		if e.Version() != before+1 {
			t.Fatalf("insert %d bumped the version by %d, want 1 (no compaction happened)", i, e.Version()-before)
		}
	}
	if !spy.attachShared || !spy.commitExclusive {
		t.Fatalf("Insert ran attach under the read lock: %v, commit under the write lock: %v; want both", spy.attachShared, spy.commitExclusive)
	}
	if d := e.Delta(); d.DeltaItems != 11 {
		t.Fatalf("Delta after the failed auto-compaction = %+v, want the 11 inserts still pending", d)
	}
	if err := e.Compact(); err == nil {
		t.Fatal("an explicit Compact over a failing build reported success")
	}
	spy.failBuild = false
	if err := e.Delete(0); err != nil { // the next mutation retries
		t.Fatal(err)
	}
	if d := e.Delta(); d.BaseItems != 110 || d.DeltaItems != 0 || d.Tombstones != 0 {
		t.Fatalf("Delta after the retried auto-compaction = %+v", d)
	}
}

// TestEngineRejectsNonFiniteQuery: a query vector with a NaN or infinite
// component is refused by every engine on every out-of-sample entry point
// (its distances cannot be ordered, so any answer would be arbitrary),
// without a panic and without touching the version.
func TestEngineRejectsNonFiniteQuery(t *testing.T) {
	t.Parallel()
	ds := NewMixture(MixtureConfig{N: 120, Classes: 4, Dim: 6, WithinStd: 0.4, Separation: 2.5, Seed: 13})
	builds := map[string]func() (Retriever, error){
		"sharded": func() (Retriever, error) {
			return BuildSharded(ds.Points, Options{Seed: 13}, ShardOptions{Shards: 2, Partitioner: PartitionKMeans})
		},
	}
	for _, row := range lifecycleRows() {
		builds[row.name] = func() (Retriever, error) { return row.build(ds.Points, Options{Seed: 13, Precision: row.prec}) }
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			e, err := build()
			if err != nil {
				t.Fatal(err)
			}
			before := e.Version()
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				q := append(Vector(nil), ds.Points[3]...)
				q[2] = bad
				refused := func(entry string, err error) {
					t.Helper()
					if err == nil || !strings.Contains(err.Error(), "non-finite component") {
						t.Fatalf("%s(%g): error %v, want the non-finite component refused", entry, bad, err)
					}
				}
				_, err := e.TopKVector(q, 5)
				refused("TopKVector", err)
				_, err = e.NewQuerier().TopKVector(q, 5)
				refused("Querier.TopKVector", err)
				if le, ok := e.(lifecycleEngine); ok {
					_, _, err = le.TopKVectorWithAffinity(q, 5)
					refused("TopKVectorWithAffinity", err)
				}
				if ix, ok := e.(*Index); ok {
					_, _, err = ix.TopKVectorWithInfo(q, 5)
					refused("TopKVectorWithInfo", err)
				}
			}
			if v := e.Version(); v != before {
				t.Fatalf("Version %d after refused queries, want %d", v, before)
			}
		})
	}
}
