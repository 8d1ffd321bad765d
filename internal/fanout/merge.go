package fanout

import (
	"slices"

	"mogul/internal/core"
	"mogul/internal/topk"
)

// RelativeAffinity prices a non-owning shard's answers to an
// in-database query against the owner's own kernel affinity:
// min(1, aff/own). The owner answers at full weight; a shard's
// out-of-sample scores are normalized to unit query mass and would
// otherwise merge at face value, so a shard the query is far from
// contributes ~nothing and one just across a partition boundary
// competes near par. A degenerate owner affinity (underflow to 0) falls
// back to the absolute affinity.
func RelativeAffinity(aff, own float64) float64 {
	if own <= 0 {
		return aff
	}
	if aff >= own {
		return 1
	}
	return aff / own
}

// bestRelative prices a shard's answers to an out-of-sample query
// against the best answering shard's affinity, so the shards holding
// the query's region dominate the merge the way they dominate the
// unsharded ranking; when every shard is equally remote (all affinities
// underflow to 0) the lists merge unscaled.
func bestRelative(aff, best float64) float64 {
	if best <= 0 {
		return 1
	}
	return aff / best
}

// probe is one staged out-of-sample answer awaiting its scale.
type probe struct {
	shard int
	res   []core.Result
	aff   float64
}

// Merge is the reusable merge scratch of one fan-out query: per-shard
// candidate lists in global ids, k-way merged under the global order
// (score descending, ties by ascending global id). The zero value is
// ready after Reset; reused across queries it allocates only the
// returned results, and a fresh one (the coordinator's) sizes each
// buffer once rather than by doubling. Not safe for concurrent use.
type Merge struct {
	merger topk.Merger
	lists  [][]topk.Item // indexed by shard, so merge input order is fixed
	items  []topk.Item   // flat backing of lists
	merged []topk.Item
	probes []probe
}

// Reset readies the scratch for a query over shards shards.
func (mg *Merge) Reset(shards int) {
	if cap(mg.lists) < shards {
		mg.lists = make([][]topk.Item, shards)
	}
	mg.lists = mg.lists[:shards]
	clear(mg.lists)
	mg.items = mg.items[:0]
	clear(mg.probes)
	mg.probes = slices.Grow(mg.probes[:0], shards)
}

// Add remaps shard s's ranked results to global ids, scales the scores
// and records them as a merge input. Within-shard order is (score desc,
// local id asc); the local->global remap need not be monotone (k-means
// partitions), so the list is re-sorted into the global order (scaling
// by a non-negative factor preserves within-list score order). A local
// id the map does not cover — an insert that reached the shard but not
// yet the map — is skipped. Callers hold m's read lock.
func (mg *Merge) Add(m *IDMap, s int, res []core.Result, scale float64) {
	l2g := m.l2g[s]
	start := len(mg.items)
	mg.items = slices.Grow(mg.items, len(res))
	for _, r := range res {
		if uint(r.Node) >= uint(len(l2g)) {
			continue
		}
		mg.items = append(mg.items, topk.Item{ID: l2g[r.Node], Score: scale * r.Score})
	}
	// Appends may have moved the flat buffer; earlier lists keep pointing
	// at the old backing array, which stays valid for this query.
	list := mg.items[start:]
	slices.SortFunc(list, func(a, b topk.Item) int {
		switch {
		case topk.Better(a, b):
			return -1
		case topk.Better(b, a):
			return 1
		default:
			return 0
		}
	})
	mg.lists[s] = list
}

// Kth returns the k-th score of shard s's added list — the owner's, in
// an in-database query, is the score a probe must reach to place — or 0
// when the list holds fewer than k items.
func (mg *Merge) Kth(s, k int) float64 {
	if l := mg.lists[s]; len(l) >= k {
		return l[k-1].Score
	}
	return 0
}

// Probe stages shard s's answer until its scale is known: an
// out-of-sample answer with the shard's raw kernel affinity to the
// query, or a set query's answer, which merges unscaled.
func (mg *Merge) Probe(s int, res []core.Result, aff float64) {
	mg.probes = append(mg.probes, probe{shard: s, res: res, aff: aff})
}

// AddProbes adds the staged answers of an in-database query, each
// priced against the owner's affinity own (RelativeAffinity).
func (mg *Merge) AddProbes(m *IDMap, own float64) {
	for _, p := range mg.probes {
		mg.Add(m, p.shard, p.res, RelativeAffinity(p.aff, own))
	}
}

// AddProbesBest adds the staged answers of an out-of-sample query, each
// priced against the best staged affinity.
func (mg *Merge) AddProbesBest(m *IDMap) {
	best := 0.0
	for _, p := range mg.probes {
		if p.aff > best {
			best = p.aff
		}
	}
	for _, p := range mg.probes {
		mg.Add(m, p.shard, p.res, bestRelative(p.aff, best))
	}
}

// TopK merges the added lists into the global top-k — the one output
// allocation.
func (mg *Merge) TopK(k int) []core.Result {
	mg.merged = slices.Grow(mg.merged[:0], min(k, len(mg.items)))
	mg.merged = mg.merger.Merge(mg.merged, k, mg.lists...)
	out := make([]core.Result, len(mg.merged))
	for i, it := range mg.merged {
		out[i] = core.Result{Node: it.ID, Score: it.Score}
	}
	return out
}
