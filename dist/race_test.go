package dist_test

import (
	"sync"
	"testing"

	"mogul"
	"mogul/dist"
)

// TestCoordinatorConcurrentReadsAndMutations runs Len, Delta and TopK
// against Insert/Delete/Compact on a coordinator over in-process shards.
// It asserts little on its own — the race detector is the oracle: every
// piece of coordinator state a search, Len or Delta reads (id map, delta
// counts) must be written under the fan-out write lock. Run with -race.
func TestCoordinatorConcurrentReadsAndMutations(t *testing.T) {
	ds := mogul.NewMixture(mogul.MixtureConfig{
		N: 130, Classes: 6, Dim: 8, WithinStd: 0.3, Separation: 3.0, Seed: 11,
	})
	base, extra := ds.Points[:100], ds.Points[100:]
	idxs, partition, err := dist.BuildShardIndexes(base, mogul.Options{Seed: 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]dist.Shard, len(idxs))
	for i, ix := range idxs {
		shards[i] = dist.Shard{Replicas: []dist.Backend{dist.LocalShard{Ix: ix}}}
	}
	coord, err := dist.NewCoordinator(shards, partition, dist.CoordOptions{})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for q := r; ; q = (q + 7) % 40 { // ids 0..39 are never deleted
				select {
				case <-stop:
					return
				default:
				}
				if n := coord.Len(); n < len(base)-len(extra) || n > len(base)+len(extra) {
					t.Errorf("Len %d outside what the mutation script can produce", n)
					return
				}
				if d := coord.Delta(); d.DeltaItems < 0 || d.Tombstones < 0 || d.DeltaItems > len(extra) {
					t.Errorf("Delta %+v outside what the mutation script can produce", d)
					return
				}
				if _, err := coord.TopK(q, 5); err != nil {
					t.Errorf("TopK(%d): %v", q, err)
					return
				}
			}
		}(r)
	}

	live := len(base)
	for i, v := range extra {
		id, err := coord.Insert(v)
		if err != nil {
			t.Fatal(err)
		}
		live++
		victim := id // delete the fresh insert, or a base item of either shard
		switch i % 3 {
		case 1:
			victim = 40 + i/3
		case 2:
			victim = 90 + i/3
		}
		if err := coord.Delete(victim); err != nil {
			t.Fatal(err)
		}
		live--
		if i%5 == 4 {
			if err := coord.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	readers.Wait()
	if coord.Len() != live {
		t.Fatalf("Len %d after the script, want %d", coord.Len(), live)
	}
	if got, want := coord.Delta(), summedDelta(idxs); got != want {
		t.Fatalf("Delta %+v after the script, shards report %+v", got, want)
	}
}
