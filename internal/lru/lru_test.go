package lru

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// refLRU is the obviously-correct single-lock reference: a recency
// slice (front = most recent) plus a value map, evicting from the back
// over budget. The property test drives Cache (1 shard, so shard-local
// LRU order is global LRU order) and refLRU through the same random op
// stream and demands identical observable behaviour at every step.
type refLRU struct {
	budget int64
	bytes  int64
	order  []string
	vals   map[string]int
	sizes  map[string]int64
}

func newRef(budget int64) *refLRU {
	return &refLRU{budget: budget, vals: map[string]int{}, sizes: map[string]int64{}}
}

func (r *refLRU) touch(key string) {
	for i, k := range r.order {
		if k == key {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.order = append([]string{key}, r.order...)
}

func (r *refLRU) get(key string) (int, bool) {
	v, ok := r.vals[key]
	if ok {
		r.touch(key)
	}
	return v, ok
}

func (r *refLRU) set(key string, val int, size int64) bool {
	if size < 0 {
		size = 0
	}
	if size > r.budget {
		r.del(key)
		return false
	}
	if old, ok := r.sizes[key]; ok {
		r.bytes += size - old
	} else {
		r.bytes += size
	}
	r.vals[key] = val
	r.sizes[key] = size
	r.touch(key)
	for r.bytes > r.budget {
		victim := r.order[len(r.order)-1]
		r.del(victim)
	}
	return true
}

func (r *refLRU) del(key string) bool {
	if _, ok := r.vals[key]; !ok {
		return false
	}
	r.bytes -= r.sizes[key]
	delete(r.vals, key)
	delete(r.sizes, key)
	for i, k := range r.order {
		if k == key {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	return true
}

// TestPropertyVsReference: 1-shard Cache == reference LRU, op for op,
// over thousands of random operations and several budgets.
func TestPropertyVsReference(t *testing.T) {
	for _, budget := range []int64{1, 7, 64, 1000} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			rng := rand.New(rand.NewSource(budget * 31))
			c := New[string, int](budget, 1)
			ref := newRef(c.shards[0].budget)
			keys := make([]string, 12)
			for i := range keys {
				keys[i] = fmt.Sprintf("k%02d", i)
			}
			for step := 0; step < 5000; step++ {
				key := keys[rng.Intn(len(keys))]
				switch op := rng.Intn(10); {
				case op < 4: // Get
					gv, gok := c.Get(key)
					wv, wok := ref.get(key)
					if gok != wok || (gok && gv != wv) {
						t.Fatalf("step %d: Get(%q) = %d,%v, want %d,%v", step, key, gv, gok, wv, wok)
					}
				case op < 8: // Set
					size := int64(rng.Intn(int(budget) + 2))
					val := rng.Int()
					got := c.Set(key, val, size)
					want := ref.set(key, val, size)
					if got != want {
						t.Fatalf("step %d: Set(%q, size %d) resident=%v, want %v", step, key, size, got, want)
					}
				default: // Delete
					if got, want := c.Delete(key), ref.del(key); got != want {
						t.Fatalf("step %d: Delete(%q) = %v, want %v", step, key, got, want)
					}
				}
				if c.Len() != len(ref.vals) {
					t.Fatalf("step %d: Len %d, want %d", step, c.Len(), len(ref.vals))
				}
				if c.Bytes() != ref.bytes {
					t.Fatalf("step %d: Bytes %d, want %d", step, c.Bytes(), ref.bytes)
				}
				// Full residency agreement, not just the touched key.
				for _, k := range keys {
					_, wok := ref.vals[k]
					if _, gok := peek(c, k); gok != wok {
						t.Fatalf("step %d: residency of %q = %v, want %v", step, k, gok, wok)
					}
				}
			}
		})
	}
}

// peek checks residency without perturbing recency order or counters.
func peek(c *Cache[string, int], key string) (int, bool) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok {
		return 0, false
	}
	return e.val, true
}

// TestShardedInvariants: with many shards, per-shard budgets hold, a
// working set within every shard budget never evicts, and Get always
// returns the last Set value.
func TestShardedInvariants(t *testing.T) {
	const maxBytes = 1 << 14
	c := New[int, int](maxBytes, 8)
	perShard := c.shards[0].budget

	// Small working set: every entry 8 bytes, far under any budget.
	last := map[int]int{}
	for i := 0; i < 64; i++ {
		c.Set(i, i*3, 8)
		last[i] = i * 3
	}
	for k, want := range last {
		if v, ok := c.Get(k); !ok || v != want {
			t.Fatalf("Get(%d) = %d,%v, want %d,true", k, v, ok, want)
		}
	}
	if st := c.Stats(); st.Evictions != 0 || st.Entries != 64 || st.Bytes != 64*8 {
		t.Fatalf("in-budget working set perturbed: %+v", st)
	}

	// Overflow: shove in far more than fits, then check every shard is
	// within budget and the accounting matches a full recount.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20000; i++ {
		c.Set(rng.Intn(4096), i, int64(1+rng.Intn(256)))
	}
	var total int64
	entries := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		if sh.bytes > sh.budget {
			t.Fatalf("shard %d holds %d bytes over budget %d", i, sh.bytes, sh.budget)
		}
		var recount int64
		n := 0
		for e := sh.head; e != nil; e = e.next {
			recount += e.size
			n++
		}
		if recount != sh.bytes || n != len(sh.entries) {
			t.Fatalf("shard %d accounting drifted: list %d bytes/%d entries, shard says %d/%d",
				i, recount, n, sh.bytes, len(sh.entries))
		}
		total += sh.bytes
		entries += n
		sh.mu.Unlock()
	}
	if total != c.Bytes() || entries != c.Len() {
		t.Fatalf("global accounting drifted: %d/%d vs %d/%d", total, entries, c.Bytes(), c.Len())
	}
	if c.Bytes() > maxBytes {
		t.Fatalf("cache holds %d bytes over the %d budget", c.Bytes(), maxBytes)
	}

	// Oversized entries are refused without nuking the shard.
	before := c.Len()
	if c.Set(1, 1, perShard+1) {
		t.Fatal("entry above the shard budget was admitted")
	}
	if got := c.Len(); got < before-1 {
		t.Fatalf("oversized Set evicted the shard: %d -> %d entries", before, got)
	}
}

// TestConcurrent hammers the cache from many goroutines (meaningful
// under -race) and then verifies the accounting survived.
func TestConcurrent(t *testing.T) {
	c := New[int, int](1<<16, 16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				k := rng.Intn(512)
				switch rng.Intn(4) {
				case 0:
					c.Get(k)
				case 1:
					c.Delete(k)
				default:
					c.Set(k, i, int64(rng.Intn(128)))
				}
			}
		}(int64(w))
	}
	wg.Wait()
	var total int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		var recount int64
		n := 0
		for e := sh.head; e != nil; e = e.next {
			recount += e.size
			n++
		}
		if recount != sh.bytes || n != len(sh.entries) {
			t.Fatalf("shard %d accounting drifted after concurrent traffic", i)
		}
		if sh.bytes > sh.budget {
			t.Fatalf("shard %d over budget after concurrent traffic", i)
		}
		total += recount
		sh.mu.Unlock()
	}
	if st := c.Stats(); st.Bytes != total {
		t.Fatalf("Stats bytes %d, recount %d", st.Bytes, total)
	}
}

func TestStatsCounters(t *testing.T) {
	c := New[string, string](1<<10, 2)
	c.Set("a", "x", 4)
	c.Get("a")
	c.Get("a")
	c.Get("missing")
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", st.Hits, st.Misses)
	}
	if st.Entries != 1 || st.Bytes != 4 {
		t.Fatalf("entries/bytes = %d/%d, want 1/4", st.Entries, st.Bytes)
	}
}
