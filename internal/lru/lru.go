// Package lru provides a concurrency-friendly, byte-budgeted LRU
// cache: the key space is split across independently locked shards
// (hash of the key picks the shard), so readers and writers on
// different shards never contend, and each shard evicts its own
// least-recently-used entries once its slice of the global byte budget
// overflows. Entry sizes are caller-provided — the cache has no way to
// know how much a generic value really weighs — which makes the
// accounting exact for the caller's definition of "bytes".
//
// The package exists to back the serving layer's query-result cache
// (package serve), but is deliberately generic: any comparable key,
// any value.
package lru

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Cache is a sharded-lock LRU cache with byte-size accounting. The
// zero value is not usable; construct with New. All methods are safe
// for concurrent use.
type Cache[K comparable, V any] struct {
	shards []shard[K, V]
	// mask selects a shard from a key hash; len(shards) is a power of
	// two.
	mask uint64
	seed maphash.Seed

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// shard is one independently locked slice of the key space: a map for
// lookup plus an intrusive doubly-linked list in recency order (head =
// most recent). Each shard owns budget bytes of the global budget and
// evicts from its own tail only — LRU order is per shard, which is the
// standard price of sharding the lock.
type shard[K comparable, V any] struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	entries map[K]*entry[K, V]
	// head/tail are sentinel-free list ends; nil when empty.
	head, tail *entry[K, V]

	// Pad to a cache line so neighbouring shards' locks do not falsely
	// share.
	_ [24]byte
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	size       int64
	prev, next *entry[K, V]
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	// Hits and Misses count Get outcomes; Evictions counts entries
	// removed to fit the byte budget (explicit Delete not included).
	Hits, Misses, Evictions int64
	// Entries and Bytes describe the current resident set.
	Entries int
	Bytes   int64
}

// New returns a cache spreading maxBytes across the given number of
// lock shards. shards is clamped to [1, 512] and rounded up to a power
// of two; maxBytes < 1 is clamped to 1 (a cache that can hold nothing
// is still well-defined: every Set evicts itself). Each shard's budget
// is maxBytes/shards, so a single entry larger than that is
// uncacheable by design — size the budget for the working set, not for
// one giant entry.
func New[K comparable, V any](maxBytes int64, shards int) *Cache[K, V] {
	if maxBytes < 1 {
		maxBytes = 1
	}
	if shards < 1 {
		shards = 1
	}
	if shards > 512 {
		shards = 512
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	per := maxBytes / int64(n)
	if per < 1 {
		per = 1
	}
	c := &Cache[K, V]{
		shards: make([]shard[K, V], n),
		mask:   uint64(n - 1),
		seed:   maphash.MakeSeed(),
	}
	for i := range c.shards {
		c.shards[i].budget = per
		c.shards[i].entries = make(map[K]*entry[K, V])
	}
	return c
}

// shardOf hashes the key to its owning shard.
func (c *Cache[K, V]) shardOf(key K) *shard[K, V] {
	return &c.shards[maphash.Comparable(c.seed, key)&c.mask]
}

// Get returns the cached value for key and marks it most recently
// used. The second return reports whether the key was resident.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		var zero V
		return zero, false
	}
	sh.moveToFront(e)
	v := e.val
	sh.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Set inserts or replaces the value for key, charging size bytes
// against the key's shard budget and evicting least-recently-used
// entries until the shard fits again. An entry whose size alone
// exceeds the shard budget is not cached (and evicts nothing); Set
// reports whether the entry is resident on return.
func (c *Cache[K, V]) Set(key K, val V, size int64) bool {
	if size < 0 {
		size = 0
	}
	sh := c.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if size > sh.budget {
		// Too large to ever fit: admitting it would wipe the whole
		// shard for an entry that still cannot stay.
		if e, ok := sh.entries[key]; ok {
			sh.remove(e)
		}
		return false
	}
	if e, ok := sh.entries[key]; ok {
		sh.bytes += size - e.size
		e.val = val
		e.size = size
		sh.moveToFront(e)
	} else {
		e := &entry[K, V]{key: key, val: val, size: size}
		sh.entries[key] = e
		sh.pushFront(e)
		sh.bytes += size
	}
	for sh.bytes > sh.budget && sh.tail != nil {
		// The just-touched entry sits at the head and fits the budget
		// on its own, so the loop always terminates before evicting it.
		sh.remove(sh.tail)
		c.evictions.Add(1)
	}
	return true
}

// Delete removes key, reporting whether it was resident.
func (c *Cache[K, V]) Delete(key K) bool {
	sh := c.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if ok {
		sh.remove(e)
	}
	return ok
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Bytes returns the total accounted size of resident entries.
func (c *Cache[K, V]) Bytes() int64 {
	var b int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		b += sh.bytes
		sh.mu.Unlock()
	}
	return b
}

// Stats snapshots the effectiveness counters and resident set size.
// The counters are read atomically but not as one transaction; under
// concurrent traffic the snapshot is approximate, as cache stats are.
func (c *Cache[K, V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
		Bytes:     c.Bytes(),
	}
}

// pushFront links a detached entry as most recently used. Callers hold
// the shard lock.
func (sh *shard[K, V]) pushFront(e *entry[K, V]) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// moveToFront marks a resident entry most recently used.
func (sh *shard[K, V]) moveToFront(e *entry[K, V]) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// unlink detaches e from the recency list without touching the map or
// the byte accounting.
func (sh *shard[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// remove evicts e entirely: list, map, and byte accounting.
func (sh *shard[K, V]) remove(e *entry[K, V]) {
	sh.unlink(e)
	delete(sh.entries, e.key)
	sh.bytes -= e.size
}
