package fanout

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"mogul/internal/core"
	"mogul/internal/vec"
)

// fakeSet is the smallest shard set the lifecycle can be driven
// against: per shard, a liveness bitmap over its local id space whose
// Compact closes ranks.
type fakeSet []*fakeShard

func (fs fakeSet) shard(s int) Member { return fs[s] }

type fakeShard struct {
	alive []bool
	base  int        // slots that were present at the last compaction
	calls int        // Liveness and Compact calls
	stats core.Stats // what Stats reports
}

// delta is the shard's own count of its dynamic state, the oracle of
// the map's.
func (f *fakeShard) delta() core.DeltaStats {
	d := core.DeltaStats{BaseItems: f.base}
	for local, a := range f.alive {
		switch {
		case !a:
			d.Tombstones++
		case local >= f.base:
			d.DeltaItems++
		}
	}
	return d
}

func (f *fakeShard) Insert(v vec.Vector) (int, error) {
	f.alive = append(f.alive, true)
	return len(f.alive) - 1, nil
}

func (f *fakeShard) Delete(local int) error {
	if !f.alive[local] {
		return fmt.Errorf("local %d already deleted", local)
	}
	f.alive[local] = false
	return nil
}

// Neighbors links a local item to every local id of its shard and one
// past them, which the map must drop.
func (f *fakeShard) Neighbors(local int) ([]int, []float64, error) {
	ids := make([]int, len(f.alive)+1)
	for i := range ids {
		ids[i] = i
	}
	return ids, slices.Repeat([]float64{1}, len(ids)), nil
}

func (f *fakeShard) Stats() core.Stats { return f.stats }

func (f *fakeShard) Liveness() (space int, dead []int, err error) {
	f.calls++
	for local, a := range f.alive {
		if !a {
			dead = append(dead, local)
		}
	}
	return len(f.alive), dead, nil
}

func (f *fakeShard) Bound() (*core.ProbeBound, error) { return nil, nil }

func (f *fakeShard) Compact() error {
	f.calls++
	f.alive = slices.DeleteFunc(f.alive, func(a bool) bool { return !a })
	f.base = len(f.alive)
	return nil
}

// newFakeSet puts a fake shard set behind the contiguous partition of n
// ids over shards shards.
func newFakeSet(t *testing.T, n, shards int, route []vec.Vector, autoCompact float64) (*Set, fakeSet) {
	t.Helper()
	partition := ContiguousPartition(n, shards)
	fakes := make(fakeSet, shards)
	shapes := make([]Shape, shards)
	for s, members := range partition {
		fakes[s] = &fakeShard{alive: slices.Repeat([]bool{true}, len(members)), base: len(members)}
		shapes[s] = Shape{Space: len(members), Live: len(members), Delta: fakes[s].delta()}
	}
	set, err := NewSet("fake", fakes.shard, partition, n, shapes, route, autoCompact)
	if err != nil {
		t.Fatal(err)
	}
	return set, fakes
}

// TestIDMapAgainstOracle drives random Insert/Delete/Compact sequences
// through a Set and a naive map[int]Loc oracle: Locate and the
// local->global tables round-trip, compaction preserves the relative
// order of survivors, a retired id never resolves again, live counts,
// delta counts, routing and Neighbors' remapping match, and the version
// only moves forward.
func TestIDMapAgainstOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shards := 1 + rng.Intn(4)
		n := 2*shards + rng.Intn(20)
		m, fakes := newFakeSet(t, n, shards, nil, 0)
		oracle := map[int]Loc{} // every id that still resolves
		dead := map[int]bool{}  // tombstoned, awaiting compaction
		retiredIDs := map[int]bool{}
		for s := range fakes {
			for local, g := range m.Locals(s) {
				oracle[g] = Loc{Shard: s, Local: local}
			}
		}
		liveOf := func(s int) int {
			c := 0
			for _, a := range fakes[s].alive {
				if a {
					c++
				}
			}
			return c
		}
		check := func(op string) {
			t.Helper()
			total := 0
			var delta core.DeltaStats
			for s := range fakes {
				total += liveOf(s)
				d := fakes[s].delta()
				if got := m.ShardDelta(s); got != d {
					t.Fatalf("seed %d after %s: shard %d delta %+v, shard reports %+v", seed, op, s, got, d)
				}
				delta.BaseItems += d.BaseItems
				delta.DeltaItems += d.DeltaItems
				delta.Tombstones += d.Tombstones
				if got := len(m.Locals(s)); got != len(fakes[s].alive) {
					t.Fatalf("seed %d after %s: shard %d table covers %d slots, shard has %d", seed, op, s, got, len(fakes[s].alive))
				}
			}
			if m.Len() != total {
				t.Fatalf("seed %d after %s: Len %d, oracle %d", seed, op, m.Len(), total)
			}
			if got := m.Delta(); got != delta {
				t.Fatalf("seed %d after %s: Delta %+v, shards sum to %+v", seed, op, got, delta)
			}
			for g := 0; g < m.Globals(); g++ {
				loc, err := m.Locate(g)
				want, ok := oracle[g]
				if ok != (err == nil) || (ok && loc != want) {
					t.Fatalf("seed %d after %s: Locate(%d) = %v, %v; oracle %v, %v", seed, op, g, loc, err, want, ok)
				}
				if ok && m.Locals(loc.Shard)[loc.Local] != g {
					t.Fatalf("seed %d after %s: id %d does not round-trip through shard %d's table", seed, op, g, loc.Shard)
				}
				if ids, _, err := m.Neighbors(fakes.shard, g); ok && (err != nil || !slices.Equal(ids, m.Locals(loc.Shard))) {
					t.Fatalf("seed %d after %s: Neighbors(%d) = %v, %v; want shard %d's table %v", seed, op, g, ids, err, loc.Shard, m.Locals(loc.Shard))
				}
				if retiredIDs[g] && err == nil {
					t.Fatalf("seed %d after %s: retired id %d resolves again", seed, op, g)
				}
			}
			if _, err := m.Locate(m.Globals()); err == nil {
				t.Fatalf("seed %d after %s: id past the id space resolves", seed, op)
			}
		}
		check("construction")
		for step := 0; step < 200; step++ {
			before := m.Version()
			switch r := rng.Intn(10); {
			case r < 5: // insert
				want := 0
				for s := range fakes {
					if liveOf(s) < liveOf(want) {
						want = s
					}
				}
				local := len(fakes[want].alive)
				g, err := m.Insert(fakes.shard, nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, seen := oracle[g]; seen || retiredIDs[g] || g != m.Globals()-1 {
					t.Fatalf("seed %d: Insert reused global id %d", seed, g)
				}
				if loc, _ := m.Locate(g); loc != (Loc{Shard: want, Local: local}) {
					t.Fatalf("seed %d: Insert placed id %d at %v, oracle shard %d local %d", seed, g, loc, want, local)
				}
				oracle[g] = Loc{Shard: want, Local: local}
			case r < 8: // delete a live item, keeping one per shard
				g := rng.Intn(m.Globals())
				loc, ok := oracle[g]
				if !ok || liveOf(loc.Shard) < 2 {
					break
				}
				err := m.Delete(fakes.shard, g)
				if dead[g] != (err != nil) {
					t.Fatalf("seed %d: Delete(%d) of a tombstoned=%v item: %v", seed, g, dead[g], err)
				}
				if err != nil {
					if m.Version() != before {
						t.Fatalf("seed %d: a refused Delete bumped the version", seed)
					}
					break
				}
				dead[g] = true
			default: // compact one shard
				s := rng.Intn(shards)
				d, calls := fakes[s].delta(), fakes[s].calls
				// Survivors in old local order are the new local order.
				survivors := []int{}
				for _, g := range m.Locals(s) {
					if dead[g] {
						delete(oracle, g)
						delete(dead, g)
						retiredIDs[g] = true
					} else {
						survivors = append(survivors, g)
					}
				}
				m.LockMutators()
				err := m.CompactShard(s, fakes[s])
				m.UnlockMutators()
				if err != nil {
					t.Fatal(err)
				}
				for local, g := range survivors {
					oracle[g] = Loc{Shard: s, Local: local}
				}
				if !slices.Equal(m.Locals(s), survivors) {
					t.Fatalf("seed %d: shard %d table %v after compaction, want survivors in order %v", seed, s, m.Locals(s), survivors)
				}
				if pending := d.DeltaItems+d.Tombstones > 0; pending != (m.Version() == before+1) {
					t.Fatalf("seed %d: %+v pending but version %d -> %d", seed, d, before, m.Version())
				} else if !pending && fakes[s].calls != calls {
					t.Fatalf("seed %d: shard %d with nothing pending was contacted", seed, s)
				}
			}
			if m.Version() < before {
				t.Fatalf("seed %d: version went backwards", seed)
			}
			check("step")
		}
	}
}

// TestNewRejects is the one construction rejection table; BuildSharded,
// LoadSharded and NewCoordinator all construct through New.
func TestNewRejects(t *testing.T) {
	dense := func(sizes ...int) []Shape {
		out := make([]Shape, len(sizes))
		for i, n := range sizes {
			out[i] = Shape{Space: n, Live: n, Delta: core.DeltaStats{BaseItems: n}}
		}
		return out
	}
	tombstoned := Shape{Space: 2, Live: 1, Delta: core.DeltaStats{BaseItems: 2, Tombstones: 1}}
	cases := []struct {
		name      string
		partition [][]int
		globals   int
		shapes    []Shape
		want      string // "" accepts
	}{
		{"dense", [][]int{{0, 1}, {2, 3}}, 4, nil, ""},
		{"non-monotone (k-means) tables", [][]int{{3, 0}, {2, 1}}, 4, dense(2, 2), ""},
		{"retired ids beyond the mapped slots", [][]int{{0, 1}, {4, 5}}, 6, nil, ""},
		{"tombstoned slot still mapped", [][]int{{0, 1}, {2, 3}}, 4, []Shape{tombstoned, dense(2)[0]}, ""},
		{"live and tombstoned delta items", [][]int{{0, 1, 2, 3}, {4, 5}}, 6, []Shape{{Space: 4, Live: 3, Delta: core.DeltaStats{BaseItems: 2, DeltaItems: 1, Tombstones: 1}}, dense(2)[0]}, ""},
		{"no shards", nil, 0, nil, "no shards"},
		{"duplicate global id", [][]int{{0, 1}, {1, 2}}, 4, nil, "assigned to shards 0 and 1"},
		{"duplicate inside one shard", [][]int{{0, 0}, {1, 2}}, 4, nil, "assigned to shards 0 and 0"},
		{"id past the id space", [][]int{{0, 1}, {2, 4}}, 4, nil, "outside [0,4)"},
		{"negative id", [][]int{{0, -1}, {2, 3}}, 4, nil, "outside [0,4)"},
		// With globals == mapped slots a missing id leaves a slot over
		// that must collide or overflow: here 2 is missing, so 4 overflows.
		{"id missing", [][]int{{0, 1}, {3, 4}}, 4, nil, "outside [0,4)"},
		{"fewer global ids than slots", [][]int{{0, 1}, {2, 3}}, 3, nil, "3 global ids for 4 shard slots"},
		{"table shorter than the shard's id space", [][]int{{0, 1}, {2}}, 3, dense(2, 2), "covers 1 slots, shard has 2"},
		{"table longer than the shard's id space", [][]int{{0, 1}, {2, 3}}, 4, dense(2, 1), "covers 2 slots, shard has 1"},
		{"more live items than slots", [][]int{{0, 1}, {2, 3}}, 4, []Shape{{Space: 2, Live: 3, Delta: core.DeltaStats{BaseItems: 2}}, dense(2)[0]}, "3 live items in 2 slots"},
		{"no delta counts", [][]int{{0, 1}, {2, 3}}, 4, []Shape{{Space: 2, Live: 2}, dense(2)[0]}, "reports delta"},
		{"tombstones that disagree with the live count", [][]int{{0, 1}, {2, 3}}, 4, []Shape{{Space: 2, Live: 1, Delta: core.DeltaStats{BaseItems: 2}}, dense(2)[0]}, "reports delta"},
		{"delta past the slots", [][]int{{0, 1}, {2, 3}}, 4, []Shape{{Space: 2, Live: 2, Delta: core.DeltaStats{BaseItems: 2, DeltaItems: 1}}, dense(2)[0]}, "reports delta"},
		{"more dead delta items than tombstones", [][]int{{0, 1, 2}, {3, 4}}, 5, []Shape{{Space: 3, Live: 3, Delta: core.DeltaStats{BaseItems: 2}}, dense(2)[0]}, "reports delta"},
		{"more dead base items than base", [][]int{{0, 1, 2}, {3, 4}}, 5, []Shape{{Space: 3, Live: 1, Delta: core.DeltaStats{BaseItems: 1, DeltaItems: 2, Tombstones: 2}}, dense(2)[0]}, "reports delta"},
		{"shape count", [][]int{{0, 1}, {2, 3}}, 4, dense(2), "1 shards with 2 partition groups"},
	}
	for _, c := range cases {
		m, err := New(c.partition, c.globals, c.shapes)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: accepted", c.name)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		case c.want == "" && m.Version() != 1:
			t.Errorf("%s: fresh map at version %d", c.name, m.Version())
		}
	}
	m, err := New([][]int{{0, 1}, {2, 3}}, 4, []Shape{tombstoned, dense(2)[0]})
	if err != nil || m.Len() != 3 || m.LeastLoaded() != 0 {
		t.Fatalf("shapes must supply the live counts: Len %d, LeastLoaded %d, err %v", m.Len(), m.LeastLoaded(), err)
	}
	if d := m.Delta(); d != (core.DeltaStats{BaseItems: 4, Tombstones: 1}) {
		t.Fatalf("shapes must seed the delta counts: %+v", d)
	}
}

// TestScaleRules pins the edge cases of the two pricing rules through
// the merge they feed.
func TestScaleRules(t *testing.T) {
	for _, c := range []struct{ aff, own, want float64 }{
		{0.2, 0.8, 0.25}, // the common case: aff/own
		{0.8, 0.8, 1},    // aff == own
		{0.9, 0.8, 1},    // aff > own clamps: a probe never outweighs the owner
		{0.3, 0, 0.3},    // owner affinity underflowed: absolute affinity
		{0, 0, 0},
	} {
		if got := RelativeAffinity(c.aff, c.own); got != c.want {
			t.Errorf("RelativeAffinity(%g, %g) = %g, want %g", c.aff, c.own, got, c.want)
		}
	}

	m, err := New([][]int{{0, 1}, {2, 3}, {4, 5}}, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	one := func(local int, score float64) []core.Result { return []core.Result{{Node: local, Score: score}} }
	scores := func(res []core.Result) map[int]float64 {
		out := map[int]float64{}
		for _, r := range res {
			out[r.Node] = r.Score
		}
		return out
	}
	var mg Merge

	// In-database query: owner at face value, probes owner-relative.
	mg.Reset(3)
	mg.Add(m, 0, one(0, 1), 1)
	mg.Probe(1, one(0, 1), 0.25)
	mg.Probe(2, one(0, 1), 2)
	mg.AddProbes(m, 0.5)
	if got := scores(mg.TopK(10)); got[0] != 1 || got[2] != 0.5 || got[4] != 1 {
		t.Errorf("owner-relative scores %v, want id0=1 id2=0.5 id4=1 (clamped)", got)
	}
	// Ties merge by ascending global id.
	if res := mg.TopK(2); res[0].Node != 0 || res[1].Node != 4 {
		t.Errorf("tie order %v, want ids 0 then 4", res)
	}

	// Out-of-sample query: best-shard-relative.
	mg.Reset(3)
	mg.Probe(0, one(1, 1), 0.1)
	mg.Probe(2, one(1, 1), 0.4)
	mg.AddProbesBest(m)
	if got := scores(mg.TopK(10)); got[1] != 0.25 || got[5] != 1 {
		t.Errorf("best-relative scores %v, want id1=0.25 id5=1", got)
	}

	// Every shard equally remote (all affinities 0): unscaled.
	mg.Reset(3)
	mg.Probe(0, one(0, 0.7), 0)
	mg.Probe(1, one(0, 0.9), 0)
	mg.AddProbesBest(m)
	if got := scores(mg.TopK(10)); got[0] != 0.7 || got[2] != 0.9 {
		t.Errorf("all-zero affinities must merge unscaled, got %v", got)
	}

	// A local id the map does not cover (an insert that has not reached
	// it, or a corrupt remote answer) is skipped, never indexed.
	mg.Reset(3)
	mg.Add(m, 1, []core.Result{{Node: 2, Score: 9}, {Node: -1, Score: 9}, {Node: 1, Score: 0.5}}, 1)
	if res := mg.TopK(10); len(res) != 1 || res[0].Node != 3 {
		t.Errorf("uncovered local ids must be skipped, got %v", res)
	}
	ids, ws := m.remap(1, []int{1, 7, 0}, []float64{0.1, 0.2, 0.3})
	if !slices.Equal(ids, []int{3, 2}) || !slices.Equal(ws, []float64{0.1, 0.3}) {
		t.Errorf("remap = %v %v, want [3 2] [0.1 0.3]", ids, ws)
	}
}

// TestGroupSeeds: seeds group by owner in input order at weight 1/n;
// an unknown seed fails the whole query.
func TestGroupSeeds(t *testing.T) {
	m, err := New([][]int{{0, 1}, {2, 3}, {4, 5}}, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	groups, w, err := m.GroupSeeds([]int{5, 0, 4, 1}, nil)
	if err != nil || w != 0.25 {
		t.Fatalf("weight %g, err %v", w, err)
	}
	want := [][]int{{0, 1}, {}, {1, 0}}
	for s := range want {
		if !slices.Equal(groups[s], want[s]) {
			t.Fatalf("groups %v, want %v", groups, want)
		}
	}
	if _, _, err := m.GroupSeeds(nil, groups); err == nil {
		t.Fatal("empty seed set accepted")
	}
	if _, _, err := m.GroupSeeds([]int{0, 6}, groups); err == nil {
		t.Fatal("unknown seed accepted")
	}
}

// TestForEach: every item runs exactly once, on at most the requested
// number of workers, each with its own state.
func TestForEach(t *testing.T) {
	for _, c := range []struct{ n, workers int }{{0, 4}, {1, 4}, {100, 3}, {7, 0}} {
		hits := make([]atomic.Int32, c.n)
		var started atomic.Int32
		ForEach(c.n, c.workers, func() func(int) {
			started.Add(1)
			return func(i int) { hits[i].Add(1) }
		})
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("n=%d workers=%d: item %d ran %d times", c.n, c.workers, i, hits[i].Load())
			}
		}
		if c.workers > 0 && int(started.Load()) > min(c.workers, c.n) {
			t.Fatalf("n=%d workers=%d: %d workers started", c.n, c.workers, started.Load())
		}
	}
}

// TestSums: unreachable shards, which report zero stats, add nothing,
// and modularity is the node-weighted mean.
func TestSums(t *testing.T) {
	set, fakes := newFakeSet(t, 6, 3, nil, 0)
	fakes[0].stats = core.Stats{NumNodes: 10, Modularity: 0.2}
	fakes[2].stats = core.Stats{NumNodes: 30, Modularity: 0.6}
	if st := set.Stats(fakes.shard); st.NumNodes != 40 || st.Modularity != (10*0.2+30*0.6)/40 {
		t.Fatalf("Stats = %+v", st)
	}
}

// TestSetRoutes: an insert goes to the nearest centroid; one whose
// dimension no centroid has goes to the least-loaded shard, which is
// left to refuse it.
func TestSetRoutes(t *testing.T) {
	set, fakes := newFakeSet(t, 8, 2, []vec.Vector{{0, 0}, {10, 0}}, 0)
	for _, c := range []struct {
		v    vec.Vector
		want int
	}{{vec.Vector{9, 1}, 1}, {vec.Vector{1, -1}, 0}, {vec.Vector{9}, 0}, {vec.Vector{9, 1}, 1}} {
		g, err := set.Insert(fakes.shard, c.v)
		if loc, _ := set.Locate(g); err != nil || loc.Shard != c.want {
			t.Fatalf("Insert(%v) went to shard %d (%v), want %d", c.v, loc.Shard, err, c.want)
		}
	}
}

// TestSetAutoCompacts: an insert that takes its shard's pending delta
// past the fraction compacts that shard alone, and the new id keeps
// resolving across it.
func TestSetAutoCompacts(t *testing.T) {
	set, fakes := newFakeSet(t, 8, 2, nil, 0.5)
	for i := 0; i < 5; i++ {
		g, err := set.Insert(fakes.shard, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := set.Locate(g); err != nil {
			t.Fatal(err)
		}
	}
	// Inserts alternate 0, 1, 0, 1, 0: the fifth takes shard 0 to three
	// pending over a base of four, past half, and folds them in.
	if d0, d1 := set.ShardDelta(0), set.ShardDelta(1); d0 != (core.DeltaStats{BaseItems: 7}) || d1 != (core.DeltaStats{BaseItems: 4, DeltaItems: 2}) {
		t.Fatalf("after five inserts: shard 0 %+v, shard 1 %+v", d0, d1)
	}
	if fakes[1].calls != 0 {
		t.Fatal("the shard under its fraction was compacted")
	}
}

// TestGatedRefuses: the gate skips a probe only on a usable bound and a
// positive k-th score, and a query inside a ball, on a border point or
// with a NaN coordinate bounds the affinity by 1.
func TestGatedRefuses(t *testing.T) {
	b := &core.ProbeBound{Dim: 2, Centres: []float64{0, 0, 10, 0}, Radii: []float64{1, 0}, Sigma: 0.1, SMax: 1}
	g := NewGate(b)
	far := []float64{100, 100}
	if !Gated(g, far, 1, 0.5) {
		t.Fatal("a query far from every ball was not gated")
	}
	for name, gated := range map[string]bool{
		"nil bound":      Gated(NewGate(nil), far, 1, 0.5),
		"zero k-th":      Gated(g, far, 1, 0),
		"NaN k-th":       Gated(g, far, 1, math.NaN()),
		"dimension":      Gated(g, []float64{100}, 1, 0.5),
		"no balls":       Gated(NewGate(&core.ProbeBound{Dim: 2, Sigma: 0.1, SMax: 1}), far, 1, 0.5),
		"NaN coordinate": Gated(g, []float64{math.NaN(), 100}, 1, 0.5),
	} {
		if gated {
			t.Errorf("%s: gated", name)
		}
	}
	for _, q := range [][]float64{{0.5, 0.5}, {10, 0}, {math.NaN(), 0}} {
		if ub := AffinityBound(b, q); ub < 1 {
			t.Errorf("AffinityBound(%v) = %v, want at least 1", q, ub)
		}
	}
}
