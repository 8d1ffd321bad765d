// Package fanout is the sharding policy, the search flow and the
// shard-set lifecycle of the repo, written once: the global id space
// over a set of shards, how a shard's local ranking is priced and
// merged into the global one, which shards an in-database query need
// not probe, the three query flows (Flow), and the lifecycle of the set
// (Set): construction, where a new point goes, delete, how the id space
// survives a shard compaction, Neighbors and the aggregate state. The
// in-process mogul.ShardedIndex and the multi-process dist.Coordinator
// only say how one shard is asked — for a query (Shards: one calls
// pinned Searchers in turn, the other hedges goroutines over Backends)
// and for the rest (Members: the shard's *Index itself, or its primary
// and hedged replicas under the per-shard deadline) — and neither
// restates the policy, the flow or the lifecycle. docs/SHARDING.md,
// "Scoring model", is the specification.
package fanout

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"mogul/internal/core"
)

// Loc addresses one item inside the shard set: the owning shard and
// the item's shard-local id.
type Loc struct {
	Shard, Local int
}

// retired marks a global id whose item was deleted and compacted away;
// the id is never reused.
var retired = Loc{Shard: -1, Local: -1}

// Shape is one shard's state as the shard itself reports it: Space
// slots (live and tombstoned alike), Live of them live, Delta, the
// split of those slots into base, live delta and tombstones, and
// whether it scores exactly.
type Shape struct {
	Space, Live int
	Delta       core.DeltaStats
	Exact       bool
}

// IDMap is the global id space of a fan-out together with the locking
// discipline that keeps it consistent with the shard states:
//
//   - searches bracket the whole fan-out with RLock/RUnlock, so the map
//     cannot move under a query;
//   - mutators bracket themselves with LockMutators/UnlockMutators
//     (one at a time) and the map changes only inside Append,
//     MarkDeleted and CompactShard, each under the write lock — and so
//     do the per-shard delta counts, which is why Delta needs no shard
//     round trip while the map's owner is the shards' sole mutator;
//   - Version bumps only once a mutation is fully visible — shard state
//     and id map both — so a version-stamped cache never captures the
//     window where a shard already answers with an item the map cannot
//     name.
//
// Locate, LeastLoaded, ShardDelta, Globals and Locals read the map and
// need either lock held.
type IDMap struct {
	mu    sync.RWMutex
	mutMu sync.Mutex

	// locOf maps a global id to its location; l2g is the inverse, one
	// dense table per shard covering the shard's whole local id space;
	// delta is each shard's base size, live delta items and tombstones,
	// so a shard's live count is len(l2g[s]) - delta[s].Tombstones and
	// neither routing nor Delta costs a shard round trip.
	locOf []Loc
	l2g   [][]int
	delta []core.DeltaStats

	// gates[s] is shard s's probe bound with its tree (Gated): nil when
	// the shard has none, and while a compaction is rebuilding it, so
	// that a search never gates a shard on a bound its state has
	// outgrown.
	gates []atomic.Pointer[Gate]

	version atomic.Uint64
}

// New builds the id map from a partition: partition[s] lists shard s's
// global ids in shard-local order. globals is the size of the global id
// space; it exceeds the mapped slots by the retired ids. shapes
// cross-checks each table against its shard (the table must cover the
// shard's id space exactly) and supplies the delta counts, which must
// add up to the shard's slots and live items; nil means the shards are
// known only through the partition, every slot a live base item. The
// partition is copied.
//
// A partition that maps an id twice or outside [0, globals) is
// rejected. With globals equal to the mapped slots — every caller but
// the loader of a file carrying retired ids — those two checks also
// reject a partition that misses an id (the slots it leaves over must
// collide or overflow).
func New(partition [][]int, globals int, shapes []Shape) (*IDMap, error) {
	if len(partition) == 0 {
		return nil, fmt.Errorf("no shards")
	}
	if shapes != nil && len(shapes) != len(partition) {
		return nil, fmt.Errorf("%d shards with %d partition groups", len(shapes), len(partition))
	}
	slots := 0
	for _, members := range partition {
		slots += len(members)
	}
	if globals < slots {
		return nil, fmt.Errorf("%d global ids for %d shard slots", globals, slots)
	}
	m := &IDMap{
		locOf: make([]Loc, globals),
		l2g:   make([][]int, len(partition)),
		delta: make([]core.DeltaStats, len(partition)),
		gates: make([]atomic.Pointer[Gate], len(partition)),
	}
	for g := range m.locOf {
		m.locOf[g] = retired
	}
	for s, members := range partition {
		m.delta[s] = core.DeltaStats{BaseItems: len(members)}
		if shapes != nil {
			sh := shapes[s]
			if len(members) != sh.Space {
				return nil, fmt.Errorf("shard %d id map covers %d slots, shard has %d", s, len(members), sh.Space)
			}
			if sh.Live < 0 || sh.Live > sh.Space {
				return nil, fmt.Errorf("shard %d reports %d live items in %d slots", s, sh.Live, sh.Space)
			}
			// The slots past the base that are not live delta items are
			// tombstoned delta items; the rest of the tombstones sit in
			// the base.
			d := sh.Delta
			deadDelta := sh.Space - d.BaseItems - d.DeltaItems
			if d.BaseItems < 0 || d.DeltaItems < 0 || d.Tombstones != sh.Space-sh.Live ||
				deadDelta < 0 || deadDelta > d.Tombstones || d.Tombstones-deadDelta > d.BaseItems {
				return nil, fmt.Errorf("shard %d reports delta %+v for %d slots, %d live", s, d, sh.Space, sh.Live)
			}
			m.delta[s] = d
		}
		m.l2g[s] = slices.Clone(members)
		for local, g := range members {
			if g < 0 || g >= globals {
				return nil, fmt.Errorf("shard %d maps local %d to global %d outside [0,%d)", s, local, g, globals)
			}
			if prev := m.locOf[g]; prev.Shard >= 0 {
				return nil, fmt.Errorf("global id %d assigned to shards %d and %d", g, prev.Shard, s)
			}
			m.locOf[g] = Loc{Shard: s, Local: local}
		}
	}
	m.version.Store(1)
	return m, nil
}

// ContiguousPartition is the contiguous s-way split of n global ids:
// shard i holds ids [i*n/s, (i+1)*n/s) in order.
func ContiguousPartition(n, s int) [][]int {
	partition := make([][]int, s)
	for g := 0; g < n; g++ {
		sh := g * s / n
		partition[sh] = append(partition[sh], g)
	}
	return partition
}

// RLock freezes the map for one fan-out search; pair with RUnlock.
func (m *IDMap) RLock() { m.mu.RLock() }

// RUnlock ends a fan-out search.
func (m *IDMap) RUnlock() { m.mu.RUnlock() }

// LockMutators admits one mutator (insert, delete, compaction, save);
// pair with UnlockMutators.
func (m *IDMap) LockMutators() { m.mutMu.Lock() }

// UnlockMutators ends a mutation.
func (m *IDMap) UnlockMutators() { m.mutMu.Unlock() }

// Version is the monotonic mutation version: 1 at construction, bumped
// by Bump and by every CompactShard that folded something in.
func (m *IDMap) Version() uint64 { return m.version.Load() }

// Bump publishes a completed mutation.
func (m *IDMap) Bump() { m.version.Add(1) }

// Globals returns the size of the global id space, retired ids
// included.
func (m *IDMap) Globals() int { return len(m.locOf) }

// Locals returns shard s's local->global table; read-only.
func (m *IDMap) Locals(s int) []int { return m.l2g[s] }

// Partition snapshots every shard's local->global table.
func (m *IDMap) Partition() [][]int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([][]int, len(m.l2g))
	for s, t := range m.l2g {
		out[s] = slices.Clone(t)
	}
	return out
}

// Len returns the live item count across all shards.
func (m *IDMap) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	total := 0
	for s := range m.l2g {
		total += m.live(s)
	}
	return total
}

// live is shard s's live item count.
func (m *IDMap) live(s int) int { return len(m.l2g[s]) - m.delta[s].Tombstones }

// Delta returns the dynamic state summed over all shards, as the
// mutations through this map left it.
func (m *IDMap) Delta() core.DeltaStats {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out core.DeltaStats
	for _, d := range m.delta {
		out.BaseItems += d.BaseItems
		out.DeltaItems += d.DeltaItems
		out.Tombstones += d.Tombstones
	}
	return out
}

// Gate returns shard s's gate, nil when it has no probe bound; it needs
// no lock.
func (m *IDMap) Gate(s int) *Gate { return m.gates[s].Load() }

// SetBound records shard s's probe bound, as the shard reported it (nil:
// none), and builds its gate; dispatchers over more than one shard set
// every shard's once at construction, and CompactShard renews it.
func (m *IDMap) SetBound(s int, b *core.ProbeBound) { m.gates[s].Store(NewGate(b)) }

// ShardDelta returns shard s's dynamic state.
func (m *IDMap) ShardDelta(s int) core.DeltaStats { return m.delta[s] }

// Locate resolves a global id to its shard and local id.
func (m *IDMap) Locate(id int) (Loc, error) {
	if id < 0 || id >= len(m.locOf) {
		return Loc{}, fmt.Errorf("item %d outside [0,%d)", id, len(m.locOf))
	}
	loc := m.locOf[id]
	if loc.Shard < 0 {
		return Loc{}, fmt.Errorf("item %d is deleted", id)
	}
	return loc, nil
}

// GroupSeeds resolves the seeds of a set query and groups their local
// ids by owning shard (groups[s] in input order, reusing buf), and
// returns the query weight every seed carries: 1/len(seeds), so query
// mass is consistent across the fan-out. Shards owning no seed get an
// empty group and contribute nothing — diffusion cannot reach them.
func (m *IDMap) GroupSeeds(seeds []int, buf [][]int) (groups [][]int, weight float64, err error) {
	if len(seeds) == 0 {
		return nil, 0, fmt.Errorf("TopKSet needs at least one seed item")
	}
	if cap(buf) < len(m.l2g) {
		buf = make([][]int, len(m.l2g))
	}
	groups = buf[:len(m.l2g)]
	for s := range groups {
		groups[s] = groups[s][:0]
	}
	for _, seed := range seeds {
		loc, err := m.Locate(seed)
		if err != nil {
			return nil, 0, err
		}
		groups[loc.Shard] = append(groups[loc.Shard], loc.Local)
	}
	return groups, 1 / float64(len(seeds)), nil
}

// remap maps a shard's neighbour list to global ids in place. A local
// id the map does not cover is dropped with its weight.
func (m *IDMap) remap(shard int, ids []int, weights []float64) ([]int, []float64) {
	l2g := m.l2g[shard]
	j := 0
	for i, local := range ids {
		if uint(local) >= uint(len(l2g)) || i >= len(weights) {
			continue
		}
		ids[j], weights[j] = l2g[local], weights[i]
		j++
	}
	return ids[:j], weights[:j]
}

// LeastLoaded picks the shard with the fewest live items, lowest id on
// ties — the insert route when the partition carries no geometry.
func (m *IDMap) LeastLoaded() int {
	best := 0
	for s := 1; s < len(m.l2g); s++ {
		if m.live(s) < m.live(best) {
			best = s
		}
	}
	return best
}

// Append assigns the next global id to the item a shard just inserted
// at local. The shard insert itself runs outside the fan-out lock so
// searches on the other shards never stall behind it; in the window
// before Append a search can already see the item in the shard's
// answers under a local id the map does not cover, and Merge.Add drops
// it for that one query (the inserter has not received the id yet).
func (m *IDMap) Append(shard, local int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	g := len(m.locOf)
	m.locOf = append(m.locOf, Loc{Shard: shard, Local: local})
	m.l2g[shard] = append(m.l2g[shard], g)
	m.delta[shard].DeltaItems++
	return g
}

// MarkDeleted records that the live item at loc was tombstoned; past
// its shard's base it also stops being a live delta item. The id keeps
// resolving until the shard's next compaction retires it.
func (m *IDMap) MarkDeleted(loc Loc) {
	m.mu.Lock()
	d := &m.delta[loc.Shard]
	d.Tombstones++
	if loc.Local >= d.BaseItems {
		d.DeltaItems--
	}
	m.mu.Unlock()
}

// Compactor is one shard as the compaction protocol drives it.
type Compactor interface {
	// Liveness snapshots the shard's id space and the local ids in it
	// that are tombstoned.
	Liveness() (space int, dead []int, err error)
	// Compact folds the shard's delta layer into a fresh base. Live
	// items keep their relative order; without tombstones local ids
	// survive bit for bit.
	Compact() error
	// Bound reports the shard's probe bound (nil: none).
	Bound() (*core.ProbeBound, error)
}

// CompactShard compacts shard s and keeps global ids stable across it,
// leaving the shard a base of its survivors with no delta and no
// tombstones. A shard whose counts show nothing to fold in is not
// contacted. Callers hold the mutator lock.
//
// An insert-only shard compacts without blocking searches: its local
// ids do not move, so the map stays valid throughout. Tombstones
// renumber local ids, so liveness is snapshotted first (mutators are
// serialized, searches cannot change it) and the shard rebuilds under
// the write lock, where no search can pair the new shard state with the
// old map; survivors close ranks in order and the ids of the rest are
// retired. The version bumps per shard that had something to fold in,
// the moment its swap is visible — a folded-in item scores through real
// graph edges instead of surrogates, and a version-stamped cache must
// not serve pre-swap answers while later shards rebuild or after one of
// them fails.
//
// A rebuilt base has a new probe bound: the old one is dropped before
// the shard compacts and the new one asked for once it has, so the
// shard is probed on every query in between. A shard whose compaction
// or bound report failed keeps none.
func (m *IDMap) CompactShard(s int, sh Compactor) error {
	d := m.delta[s]
	if d.DeltaItems+d.Tombstones == 0 {
		return nil
	}
	m.gates[s].Store(nil)
	if err := m.compactShard(s, sh, d); err != nil {
		return err
	}
	// A single shard is never probed, so it is never asked for a bound.
	if len(m.gates) > 1 {
		if b, err := sh.Bound(); err == nil {
			m.SetBound(s, b)
		}
	}
	return nil
}

// compactShard is CompactShard's rebuild and renumbering.
func (m *IDMap) compactShard(s int, sh Compactor, d core.DeltaStats) error {
	if d.Tombstones == 0 {
		if err := sh.Compact(); err != nil {
			return err
		}
		m.mu.Lock()
		m.delta[s] = core.DeltaStats{BaseItems: len(m.l2g[s])}
		m.mu.Unlock()
		m.version.Add(1)
		return nil
	}
	space, deadIDs, err := sh.Liveness()
	if err != nil {
		return err
	}
	table := m.l2g[s]
	dead := make([]bool, len(table))
	for _, local := range deadIDs {
		if uint(local) < uint(len(dead)) {
			dead[local] = true
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := sh.Compact(); err != nil {
		return err
	}
	j := 0
	for local, g := range table {
		if local < space && !dead[local] {
			table[j] = g
			m.locOf[g] = Loc{Shard: s, Local: j}
			j++
		} else {
			m.locOf[g] = retired
		}
	}
	m.l2g[s] = table[:j]
	m.delta[s] = core.DeltaStats{BaseItems: j}
	m.version.Add(1)
	return nil
}
