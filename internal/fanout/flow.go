package fanout

import (
	"slices"

	"mogul/internal/core"
	"mogul/internal/vec"
)

// Shards is how a dispatcher asks its shards, for the query flows of a
// Flow: the in-process mogul.ShardedSearcher calls its pinned Searchers
// one after another and fails the query on the first error; the
// dist.Coordinator asks in parallel, hedged under per-shard deadlines,
// and records a shard that fails in its coverage report. The flows
// return every error a Shards method returns as it is, so each carries
// the dispatcher's spelling; the flow's own errors (a bad argument, an
// id the map does not hold) carry the Set's package prefix.
type Shards interface {
	// Owner runs the in-database search for global id item on the shard
	// that owns it, at loc. Over more than one shard it also returns the
	// item's stored vector and the shard's kernel affinity to it, which
	// the other shards are probed and priced with. Its error fails the
	// query.
	Owner(item int, loc Loc, k int) (res []core.Result, q vec.Vector, aff float64, err error)
	// Probe asks every shard that ask marks (every shard when ask is nil)
	// for its out-of-sample answer to q and stages each answer in mg with the shard's affinity
	// (Merge.Probe), so the answers staged are the shards that answered.
	Probe(q vec.Vector, k int, ask []bool, mg *Merge) error
	// Seeds asks every shard with a non-empty group for its search over
	// those local seeds, each carrying weight, and stages each answer in
	// mg (Merge.Probe; the affinity is not read).
	Seeds(groups [][]int, weight float64, k int, mg *Merge) error
	// Unanswered is the error of a query that no shard it asked
	// answered; what names those shards.
	Unanswered(what string) error
}

// Flow runs the three query flows of a fan-out over a Set and one
// dispatcher's Shards, each under the id map's read lock for the whole
// query (docs/SHARDING.md, "Scoring model" and "Gated probes"). It is one
// worker's scratch: the merge, the shards an id query asks, a set
// query's seed groups. The zero value is ready; reused across queries
// it allocates only the merged output. Not safe for concurrent use.
type Flow struct {
	mg     Merge
	ask    []bool
	groups [][]int
}

// TopK answers an in-database query: the owner's in-database search,
// then an out-of-sample probe of every other shard whose gate does not
// rule it out (Gated), each priced against the owner's affinity.
func (f *Flow) TopK(m *Set, sh Shards, item, k int) ([]core.Result, error) {
	m.RLock()
	defer m.RUnlock()
	if k <= 0 {
		return nil, m.errorf("K must be positive, got %d", k)
	}
	loc, err := m.Locate(item)
	if err != nil {
		return nil, m.errorf("%w", err)
	}
	res, q, own, err := sh.Owner(item, loc, k)
	if err != nil {
		return nil, err
	}
	f.mg.Reset(len(m.l2g))
	f.mg.Add(m.IDMap, loc.Shard, res, 1)
	if len(m.l2g) > 1 {
		kth := f.mg.Kth(loc.Shard, k)
		f.ask = slices.Grow(f.ask[:0], len(m.l2g))[:len(m.l2g)]
		for s := range f.ask {
			f.ask[s] = s != loc.Shard && !Gated(m.Gate(s), q, own, kth)
		}
		if err := sh.Probe(q, k, f.ask, &f.mg); err != nil {
			return nil, err
		}
		f.mg.AddProbes(m.IDMap, own)
	}
	return f.mg.TopK(k), nil
}

// TopKVector answers an out-of-sample query: every shard is probed, and
// each answer is priced against the best answering shard's affinity.
func (f *Flow) TopKVector(m *Set, sh Shards, q vec.Vector, k int) ([]core.Result, error) {
	m.RLock()
	defer m.RUnlock()
	if k <= 0 {
		return nil, m.errorf("K must be positive, got %d", k)
	}
	f.mg.Reset(len(m.l2g))
	if err := sh.Probe(q, k, nil, &f.mg); err != nil {
		return nil, err
	}
	if len(f.mg.probes) == 0 {
		return nil, sh.Unanswered("shard")
	}
	f.mg.AddProbesBest(m.IDMap)
	return f.mg.TopK(k), nil
}

// TopKSet answers a set query: each shard that owns seeds searches them
// at the global weight 1/len(seeds), and the answers merge unscaled.
// Shards owning no seed are not asked (docs/SHARDING.md). The arguments
// are checked in the single engines' order: an empty seed set, then k,
// then each seed.
func (f *Flow) TopKSet(m *Set, sh Shards, seeds []int, k int) ([]core.Result, error) {
	m.RLock()
	defer m.RUnlock()
	if k <= 0 && len(seeds) > 0 { // GroupSeeds refuses an empty set first
		return nil, m.errorf("K must be positive, got %d", k)
	}
	groups, w, err := m.GroupSeeds(seeds, f.groups)
	if err != nil {
		return nil, m.errorf("%w", err)
	}
	f.groups = groups
	f.mg.Reset(len(groups))
	if err := sh.Seeds(groups, w, k, &f.mg); err != nil {
		return nil, err
	}
	if len(f.mg.probes) == 0 {
		return nil, sh.Unanswered("seed-owning shard")
	}
	for _, p := range f.mg.probes {
		f.mg.Add(m.IDMap, p.shard, p.res, 1)
	}
	return f.mg.TopK(k), nil
}
