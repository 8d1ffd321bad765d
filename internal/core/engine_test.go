package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"mogul/internal/dataset"
	"mogul/internal/knn"
	"mogul/internal/topk"
	"mogul/internal/vec"
)

// This file proves the pooled query engine (engine.go) is an exact
// drop-in for the pre-engine behavior: refSearchSources below is the
// allocate-per-query implementation the engine replaced, kept verbatim
// as the property-test oracle. Results must match bit for bit — same
// nodes, same float64 scores, same work counters — across Mogul,
// MogulE, delta states (inserts, deletes), out-of-sample queries, and
// serialization round trips.

// refSearchSources is the pre-refactor search path: fresh O(n)
// slices, an active-cluster map, a map-based tombstone filter, and a
// newly allocated collector per query.
func refSearchSources(ix *dyn, sources []source, opts SearchOptions) ([]Result, *SearchInfo, error) {
	n := ix.factor.N
	ov := ix.overlay()
	k := opts.K
	if total := ov.Live; k > total {
		k = total
	}
	info := &SearchInfo{}

	if opts.FullSubstitution {
		return refSearchFull(ix, ov, sources, k, info)
	}

	layout := ix.layout
	f := ix.factor
	border := layout.Border()
	computed := make([]bool, layout.NumClusters)
	coll := topk.New(k)
	offer := func(pos int, score float64) {
		if ov.Dead[layout.Perm.NewToOld[pos]] {
			return
		}
		coll.Offer(pos, score)
	}

	active := make(map[int]bool, 4)
	for _, s := range sources {
		active[layout.ClusterOf[s.pos]] = true
	}
	active[border] = true
	activeList := make([]int, 0, len(active))
	for c := 0; c < layout.NumClusters; c++ {
		if active[c] {
			activeList = append(activeList, c)
		}
	}

	y := make([]float64, n)
	for _, s := range sources {
		y[s.pos] += s.weight
	}
	for _, c := range activeList {
		lo, hi := layout.ClusterRange(c)
		for j := lo; j < hi; j++ {
			y[j] /= f.D[j]
			yj := y[j]
			if yj == 0 {
				continue
			}
			rows, vals := f.Col(j)
			dj := f.D[j]
			for t, i := range rows {
				y[i] -= vals[t] * dj * yj
			}
		}
	}

	x := make([]float64, n)
	cN := layout.BorderStart()
	ix.backSubstituteRange(x, y, cN, n)
	computed[border] = true
	info.ScoresComputed += n - cN
	info.ClustersScanned++
	for _, c := range activeList {
		if c == border {
			continue
		}
		lo, hi := layout.ClusterRange(c)
		ix.backSubstituteRange(x, y, lo, hi)
		computed[c] = true
		info.ScoresComputed += hi - lo
		info.ClustersScanned++
	}

	for _, c := range activeList {
		lo, hi := layout.ClusterRange(c)
		for i := lo; i < hi; i++ {
			offer(i, x[i])
		}
	}

	xAbsBorder := make([]float64, n-cN)
	for i := cN; i < n; i++ {
		xAbsBorder[i-cN] = math.Abs(x[i])
	}

	for c := 0; c < layout.NumClusters; c++ {
		if active[c] {
			continue
		}
		if !opts.DisablePruning {
			bound := ix.bounds.clusterBound(c, layout, xAbsBorder)
			if bound < coll.Threshold() {
				info.ClustersPruned++
				continue
			}
		}
		lo, hi := layout.ClusterRange(c)
		ix.backSubstituteRange(x, y, lo, hi)
		computed[c] = true
		info.ScoresComputed += hi - lo
		info.ClustersScanned++
		for i := lo; i < hi; i++ {
			offer(i, x[i])
		}
	}

	if ix.liveDelta(ov) > 0 {
		for i, cs := range ov.Clusters {
			for _, c := range cs {
				if computed[c] || ov.Dead[n+i] {
					continue
				}
				lo, hi := ix.layout.ClusterRange(c)
				ix.backSubstituteRange(x, y, lo, hi)
				computed[c] = true
				info.ScoresComputed += hi - lo
				info.ClustersScanned++
			}
		}
		ix.offerDeltas(coll, x, ov)
	}

	return refCollect(ix.Index, coll), info, nil
}

// refSearchFull is the pre-refactor unstructured ablation path.
func refSearchFull(ix *dyn, ov *Overlay, sources []source, k int, info *SearchInfo) ([]Result, *SearchInfo, error) {
	n := ix.factor.N
	q := make([]float64, n)
	for _, s := range sources {
		q[s.pos] += s.weight
	}
	x := ix.factor.Solve(q)
	info.ScoresComputed = n
	info.ClustersScanned = ix.layout.NumClusters
	coll := topk.New(k)
	for i, v := range x {
		if ov.Dead[ix.layout.Perm.NewToOld[i]] {
			continue
		}
		coll.Offer(i, v)
	}
	ix.offerDeltas(coll, x, ov)
	return refCollect(ix.Index, coll), info, nil
}

// refCollect is the pre-refactor collect (copying Results instead of
// draining in place).
func refCollect(ix *Index, coll *topk.Collector) []Result {
	n := ix.factor.N
	items := coll.Results()
	out := make([]Result, len(items))
	for i, it := range items {
		if it.ID >= n {
			out[i] = Result{Node: it.ID, Score: it.Score}
			continue
		}
		out[i] = Result{Node: ix.layout.Perm.NewToOld[it.ID], Score: it.Score}
	}
	return out
}

func refSearch(ix *dyn, query int, opts SearchOptions) ([]Result, *SearchInfo, error) {
	return refSearchMulti(ix, []WeightedQuery{{Node: query, Weight: 1}}, opts)
}

func refSearchMulti(ix *dyn, seeds []WeightedQuery, opts SearchOptions) ([]Result, *SearchInfo, error) {
	if opts.K <= 0 {
		return nil, nil, fmt.Errorf("core: K must be positive, got %d", opts.K)
	}
	var sc Scratch
	for _, s := range seeds {
		if err := ix.checkItem(s.Node); err != nil {
			return nil, nil, err
		}
		ix.AddSeed(&sc, ix.overlay(), s.Node, s.Weight)
	}
	return refSearchSources(ix, sc.srcBuf, opts)
}

func refSearchOutOfSample(ix *dyn, q vec.Vector, opts OOSOptions) ([]Result, *SearchInfo, error) {
	s := new(Scratch)
	ix.ready(s)
	if err := ix.findSurrogates(s, ix.overlay(), q, opts.NumNeighbors); err != nil {
		return nil, nil, err
	}
	sources := make([]source, len(s.probeIDs))
	for i, id := range s.probeIDs {
		sources[i] = source{pos: ix.layout.Perm.OldToNew[id], weight: (1 - ix.alpha) * s.probeWts[i]}
	}
	return refSearchSources(ix, sources, opts.searchOptions())
}

func (o OOSOptions) searchOptions() SearchOptions {
	return SearchOptions{K: o.K, DisablePruning: o.DisablePruning, FullSubstitution: o.FullSubstitution}
}

// engineFixture builds one index plus the point pool used to exercise
// delta states and out-of-sample queries.
type engineFixture struct {
	name string
	ix   *dyn
	pool []vec.Vector // held-out points: OOS queries and inserts
}

func engineFixtures(t *testing.T) []engineFixture {
	t.Helper()
	ds := dataset.Mixture(dataset.MixtureConfig{
		N: 440, Classes: 8, Dim: 8, WithinStd: 0.25, Separation: 2.2, Seed: 42,
	})
	base, pool := ds.Points[:400], ds.Points[400:]
	cfg := knn.GraphConfig{K: 5}
	g, err := knn.BuildGraph(base, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var out []engineFixture
	for _, exact := range []bool{false, true} {
		name := "Mogul"
		if exact {
			name = "MogulE"
		}
		fresh, err := NewIndex(g, Options{Exact: exact, Graph: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, engineFixture{name: name, ix: newDyn(fresh), pool: pool})

		// Delta state: inserts plus base and delta tombstones.
		dirty := newDyn(fresh)
		for _, p := range pool[:24] {
			if _, err := dirty.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range []int{3, 77, 200, 399, 402, 411} {
			if err := dirty.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, engineFixture{name: name + "+delta", ix: dirty, pool: pool[24:]})

		// Serialization round trip of the delta state.
		var buf bytes.Buffer
		if _, err := dirty.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := asDyn(ReadIndex(&buf))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, engineFixture{name: name + "+delta+reload", ix: loaded, pool: pool[24:]})
	}
	return out
}

func sameResults(t *testing.T, label string, got []Result, want []Result) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: engine and reference disagree\n got: %v\nwant: %v", label, got, want)
	}
}

// TestEngineMatchesReference is the tentpole property test: for every
// index state, every query kind, and every option combination, the
// pooled engine must reproduce the pre-refactor path bit for bit —
// results (ids AND float64 score bits) and work counters alike.
func TestEngineMatchesReference(t *testing.T) {
	optVariants := []struct {
		name string
		opts SearchOptions
	}{
		{"pruned", SearchOptions{}},
		{"noPruning", SearchOptions{DisablePruning: true}},
		{"fullSubstitution", SearchOptions{FullSubstitution: true}},
	}
	for _, f := range engineFixtures(t) {
		t.Run(f.name, func(t *testing.T) {
			total := f.ix.Len()
			queries := []int{0, 1, 17, 123, 399}
			if f.ix.liveDelta(f.ix.overlay()) > 0 {
				queries = append(queries, 400, 405) // live delta items
			}
			for _, v := range optVariants {
				for _, k := range []int{1, 10, 97, total + 50} {
					opts := v.opts
					opts.K = k
					for _, q := range queries {
						label := fmt.Sprintf("%s/k=%d/q=%d", v.name, k, q)
						want, wantInfo, wantErr := refSearch(f.ix, q, opts)
						got, gotInfo, gotErr := f.ix.Search(q, opts)
						if (wantErr == nil) != (gotErr == nil) {
							t.Fatalf("%s: error mismatch: engine %v, reference %v", label, gotErr, wantErr)
						}
						if wantErr != nil {
							continue
						}
						sameResults(t, label, got, want)
						if *gotInfo != *wantInfo {
							t.Fatalf("%s: info mismatch: engine %+v, reference %+v", label, *gotInfo, *wantInfo)
						}
					}

					// Multi-seed queries.
					seeds := []WeightedQuery{{Node: 1, Weight: 0.5}, {Node: 123, Weight: 0.3}, {Node: 17, Weight: 0.2}}
					want, wantInfo, wantErr := refSearchMulti(f.ix, seeds, opts)
					got, gotInfo, gotErr := f.ix.SearchMulti(seeds, opts)
					if wantErr != nil || gotErr != nil {
						t.Fatalf("multi/%s: errors engine %v reference %v", v.name, gotErr, wantErr)
					}
					sameResults(t, "multi/"+v.name, got, want)
					if *gotInfo != *wantInfo {
						t.Fatalf("multi/%s: info mismatch: %+v vs %+v", v.name, *gotInfo, *wantInfo)
					}

					// Out-of-sample queries.
					for qi, qv := range f.pool[:4] {
						oopts := OOSOptions{K: k, DisablePruning: v.opts.DisablePruning, FullSubstitution: v.opts.FullSubstitution}
						want, _, wantErr := refSearchOutOfSample(f.ix, qv, oopts)
						got, _, gotErr := f.ix.SearchOutOfSample(qv, oopts)
						if wantErr != nil || gotErr != nil {
							t.Fatalf("oos/%s/%d: errors engine %v reference %v", v.name, qi, gotErr, wantErr)
						}
						sameResults(t, fmt.Sprintf("oos/%s/%d", v.name, qi), got, want)
						// The breakdown-free fast path must agree too.
						fast, err := f.ix.TopKVector(qv, k)
						if err != nil {
							t.Fatal(err)
						}
						if oopts.DisablePruning || oopts.FullSubstitution {
							continue // TopKVector always runs the default pruned path
						}
						sameResults(t, fmt.Sprintf("oos-fast/%s/%d", v.name, qi), fast, want)
					}
				}
			}
		})
	}
}

// TestScratchResetInvariant drives many queries through one reused
// scratch and checks, after every single query, the engine's core
// invariant: x and y all zero, computed all false, touched empty. A
// violation would silently corrupt the NEXT query, so it is checked
// directly rather than through output equality alone.
func TestScratchResetInvariant(t *testing.T) {
	fixtures := engineFixtures(t)
	for _, f := range fixtures {
		t.Run(f.name, func(t *testing.T) {
			s := new(Scratch)
			check := func(step string) {
				t.Helper()
				for i, v := range s.x {
					if v != 0 {
						t.Fatalf("%s: x[%d] = %g after reset", step, i, v)
					}
				}
				for i, v := range s.y {
					if v != 0 {
						t.Fatalf("%s: y[%d] = %g after reset", step, i, v)
					}
				}
				for c, v := range s.computed {
					if v {
						t.Fatalf("%s: computed[%d] still set after reset", step, c)
					}
				}
				if len(s.touched) != 0 {
					t.Fatalf("%s: touched not empty after reset: %v", step, s.touched)
				}
			}
			for i, q := range []int{0, 17, 123, 398, 1, 398} {
				if _, err := f.ix.TopKScratch(s, q, 10); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%s topk #%d", f.name, i))
			}
			for i, opts := range []SearchOptions{{K: 5, FullSubstitution: true}, {K: 5, DisablePruning: true}} {
				if _, _, err := f.ix.SearchScratch(s, 42, opts); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%s opts #%d", f.name, i))
			}
			for i, qv := range f.pool[:3] {
				if _, err := f.ix.TopKVectorScratch(s, qv, 10); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("%s vector #%d", f.name, i))
			}
		})
	}
}

// TestScratchOwnerInvalidation moves one Scratch to an index of another
// geometry (what a compaction hands the lifecycle) and to one of the
// same geometry; the owner check must transparently re-size the
// workspace and results must match a never-pooled baseline.
func TestScratchOwnerInvalidation(t *testing.T) {
	ds := dataset.Mixture(dataset.MixtureConfig{
		N: 340, Classes: 6, Dim: 8, WithinStd: 0.25, Separation: 2.2, Seed: 7,
	})
	cfg := knn.GraphConfig{K: 5}
	build := func(n int, exact bool) *dyn {
		g, err := knn.BuildGraph(ds.Points[:n], cfg)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := NewIndex(g, Options{Exact: exact, Graph: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		return newDyn(ix)
	}
	s := new(Scratch)
	for _, ix := range []*dyn{build(300, false), build(320, false), build(320, true)} {
		got, err := ix.TopKScratch(s, 3, 10)
		if err != nil {
			t.Fatal(err)
		}
		if s.owner != ix.Index || len(s.x) != ix.factor.N {
			t.Fatalf("scratch not re-sized for its new index: len(x) = %d, want %d", len(s.x), ix.factor.N)
		}
		want, _, err := refSearch(ix, 3, SearchOptions{K: 10})
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("n=%d", ix.factor.N), got, want)
	}
}
