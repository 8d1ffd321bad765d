package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"mogul/internal/dataset"
	"mogul/internal/knn"
	"mogul/internal/sparse"
	"mogul/internal/vec"
)

// twoCliques builds two size-m cliques joined by a single bridge edge.
func twoCliques(m int) *sparse.CSR {
	var entries []sparse.Coord
	add := func(a, b int) {
		entries = append(entries, sparse.Coord{Row: a, Col: b, Val: 1})
		entries = append(entries, sparse.Coord{Row: b, Col: a, Val: 1})
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			add(i, j)
			add(m+i, m+j)
		}
	}
	add(0, m)
	adj, err := sparse.NewFromCoords(2*m, 2*m, entries)
	if err != nil {
		panic(err)
	}
	return adj
}

func TestLouvainTwoCliques(t *testing.T) {
	adj := twoCliques(8)
	cl, err := Louvain(adj, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if cl.N != 2 {
		t.Fatalf("found %d clusters, want 2 (assignment %v)", cl.N, cl.Assign)
	}
	for i := 1; i < 8; i++ {
		if cl.Assign[i] != cl.Assign[0] {
			t.Fatal("first clique split")
		}
		if cl.Assign[8+i] != cl.Assign[8] {
			t.Fatal("second clique split")
		}
	}
	if cl.Assign[0] == cl.Assign[8] {
		t.Fatal("cliques merged")
	}
	if cl.Modularity < 0.3 {
		t.Fatalf("modularity %g unexpectedly low", cl.Modularity)
	}
}

// ringOfCliques builds the classic benchmark: cliques equal-weight
// cliques of the given size, each joined to the next by one edge.
func ringOfCliques(cliques, size int) *sparse.CSR {
	var entries []sparse.Coord
	add := func(a, b int) {
		entries = append(entries, sparse.Coord{Row: a, Col: b, Val: 1})
		entries = append(entries, sparse.Coord{Row: b, Col: a, Val: 1})
	}
	for c := 0; c < cliques; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				add(base+i, base+j)
			}
		}
		next := ((c + 1) % cliques) * size
		add(base, next+1)
	}
	adj, err := sparse.NewFromCoords(cliques*size, cliques*size, entries)
	if err != nil {
		panic(err)
	}
	return adj
}

func TestLouvainRingOfCliques(t *testing.T) {
	// Louvain must find roughly one cluster per clique.
	const cliques, size = 6, 6
	adj := ringOfCliques(cliques, size)
	cl, err := Louvain(adj, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if cl.N < cliques/2 || cl.N > cliques {
		t.Fatalf("found %d clusters for %d cliques", cl.N, cliques)
	}
	// Every clique stays whole.
	for c := 0; c < cliques; c++ {
		base := c * size
		for i := 1; i < size; i++ {
			if cl.Assign[base+i] != cl.Assign[base] {
				t.Fatalf("clique %d split", c)
			}
		}
	}
}

func TestLouvainEdgeless(t *testing.T) {
	adj, _ := sparse.NewFromCoords(5, 5, nil)
	cl, err := Louvain(adj, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if cl.N != 5 {
		t.Fatalf("edgeless graph: %d clusters, want 5 singletons", cl.N)
	}
	if cl.Modularity != 0 {
		t.Fatalf("edgeless modularity = %g", cl.Modularity)
	}
}

func TestLouvainEmpty(t *testing.T) {
	adj, _ := sparse.NewFromCoords(0, 0, nil)
	cl, err := Louvain(adj, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if cl.N != 0 {
		t.Fatalf("empty graph: %d clusters", cl.N)
	}
}

func TestLouvainRejectsRectangular(t *testing.T) {
	adj, _ := sparse.NewFromCoords(2, 3, nil)
	if _, err := Louvain(adj, Config{}); err == nil {
		t.Fatal("rectangular adjacency accepted")
	}
}

func TestLouvainDeterministic(t *testing.T) {
	adj := twoCliques(10)
	a, err := Louvain(adj, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Louvain(adj, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("non-deterministic clustering")
		}
	}
}

func TestModularityBounds(t *testing.T) {
	// Property: modularity of any labelling lies in [-1, 1].
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		var entries []sparse.Coord
		for e := 0; e < n*2; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			entries = append(entries, sparse.Coord{Row: i, Col: j, Val: 1})
			entries = append(entries, sparse.Coord{Row: j, Col: i, Val: 1})
		}
		adj, err := sparse.NewFromCoords(n, n, entries)
		if err != nil {
			return false
		}
		assign := make([]int, n)
		for i := range assign {
			assign[i] = rng.Intn(3)
		}
		q := Modularity(adj, assign, 1)
		return q >= -1-1e-9 && q <= 1+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLouvainNeverWorseThanSingletons(t *testing.T) {
	// The optimizer starts from singletons, so its final modularity
	// cannot be below the singleton partition's.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(25)
		var entries []sparse.Coord
		for e := 0; e < n*3; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			w := rng.Float64()
			entries = append(entries, sparse.Coord{Row: i, Col: j, Val: w})
			entries = append(entries, sparse.Coord{Row: j, Col: i, Val: w})
		}
		adj, err := sparse.NewFromCoords(n, n, entries)
		if err != nil {
			return false
		}
		cl, err := Louvain(adj, Config{})
		if err != nil {
			return false
		}
		singletons := make([]int, n)
		for i := range singletons {
			singletons[i] = i
		}
		return cl.Modularity >= Modularity(adj, singletons, 1)-1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// louvainMapOracle is Louvain with the local move and the relabelling
// as they were before both moved onto dense scratch: a per-node map of
// neighbour-community weights and a map from label to compacted id.
// The level loop is Louvain's own.
func louvainMapOracle(adj *sparse.CSR, cfg Config) *Clustering {
	c := cfg.withDefaults()
	n := adj.Rows
	if n == 0 {
		return &Clustering{Assign: nil, N: 0}
	}
	current := adj
	assignStack := make([][]int, 0, c.MaxLevels)
	for len(assignStack) < c.MaxLevels {
		assign, improved := localMoveMapOracle(current, c)
		compacted, nComm := compactLabelsMapOracle(assign)
		assignStack = append(assignStack, compacted)
		if !improved || nComm == current.Rows || len(assignStack) == c.MaxLevels {
			break
		}
		current = aggregate(current, compacted, nComm)
	}
	final := make([]int, n)
	for i := range final {
		final[i] = i
	}
	for _, assign := range assignStack {
		for i := range final {
			final[i] = assign[final[i]]
		}
	}
	compact, nClusters := compactLabelsMapOracle(final)
	q := Modularity(adj, compact, c.Resolution)
	return &Clustering{Assign: compact, N: nClusters, Modularity: q, Levels: len(assignStack)}
}

// localMoveMapOracle is localMove with its neighbour-community weights
// in a map, frozen as the bits localMove must keep.
func localMoveMapOracle(adj *sparse.CSR, cfg Config) (assign []int, improved bool) {
	n := adj.Rows
	assign = make([]int, n)
	degree := make([]float64, n)
	var total2m float64
	for i := 0; i < n; i++ {
		cols, vals := adj.Row(i)
		for k := range cols {
			degree[i] += vals[k]
			total2m += vals[k]
		}
		assign[i] = i
	}
	if total2m == 0 {
		return assign, false
	}
	commTot := append([]float64(nil), degree...)
	neighWeight := make(map[int]float64, 16)
	candidates := make([]int, 0, 16)
	for sweep := 0; sweep < cfg.MaxSweeps; sweep++ {
		moved := 0
		for i := 0; i < n; i++ {
			ci := assign[i]
			for k := range neighWeight {
				delete(neighWeight, k)
			}
			candidates = candidates[:0]
			cols, vals := adj.Row(i)
			for k, j := range cols {
				if j == i {
					continue
				}
				c := assign[j]
				if _, ok := neighWeight[c]; !ok {
					candidates = append(candidates, c)
				}
				neighWeight[c] += vals[k]
			}
			sort.Ints(candidates)
			commTot[ci] -= degree[i]
			best, bestGain := ci, neighWeight[ci]-cfg.Resolution*degree[i]*commTot[ci]/total2m
			for _, cand := range candidates {
				if cand == ci {
					continue
				}
				gain := neighWeight[cand] - cfg.Resolution*degree[i]*commTot[cand]/total2m
				if gain > bestGain+cfg.MinGain || (gain > bestGain-cfg.MinGain && cand < best && gain >= bestGain) {
					best, bestGain = cand, gain
				}
			}
			commTot[best] += degree[i]
			if best != ci {
				assign[i] = best
				moved++
				improved = true
			}
		}
		if moved == 0 {
			break
		}
	}
	return assign, improved
}

// compactLabelsMapOracle is compactLabels with a map from label to id.
func compactLabelsMapOracle(assign []int) ([]int, int) {
	remap := make(map[int]int, len(assign))
	out := make([]int, len(assign))
	next := 0
	for i, a := range assign {
		id, ok := remap[a]
		if !ok {
			id = next
			remap[a] = id
			next++
		}
		out[i] = id
	}
	return out, next
}

// sameClustering reports how got differs from want: Assign, N, Levels
// or the bits of Modularity.
func sameClustering(got, want *Clustering) error {
	if got.N != want.N || got.Levels != want.Levels {
		return fmt.Errorf("N, Levels = %d, %d, oracle %d, %d", got.N, got.Levels, want.N, want.Levels)
	}
	if math.Float64bits(got.Modularity) != math.Float64bits(want.Modularity) {
		return fmt.Errorf("modularity %v (%#x), oracle %v (%#x)", got.Modularity,
			math.Float64bits(got.Modularity), want.Modularity, math.Float64bits(want.Modularity))
	}
	if !slices.Equal(got.Assign, want.Assign) {
		return fmt.Errorf("assignments differ")
	}
	return nil
}

// knnGraph is the heat-kernel K = 5 graph the engines build over points.
func knnGraph(points []vec.Vector) *sparse.CSR {
	g, err := knn.BuildGraph(points, knn.GraphConfig{K: 5})
	if err != nil {
		panic(err)
	}
	return g.Adj
}

// graphIDGraph is the graph_id workload's graph: INRIASim, n = 14000,
// generator seed 1. mixedRWGraph is mixed_rw's: the d = 8 mixture at
// n = 20000, seed 1.
var (
	graphIDGraph = sync.OnceValue(func() *sparse.CSR { return knnGraph(dataset.INRIASim(14_000, 1).Points) })
	mixedRWGraph = sync.OnceValue(func() *sparse.CSR {
		return knnGraph(dataset.Mixture(dataset.MixtureConfig{
			N: 20_000, Classes: 2000, Dim: 8, WithinStd: 0.25, Separation: 3.0, Seed: 1,
		}).Points)
	})
)

// randomWeighted builds a symmetric graph on n nodes whose edges draw
// their weights from a small set that includes zero, with self loops.
func randomWeighted(n int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	weights := []float64{0, 0.5, 1, 1, 2, 3}
	var entries []sparse.Coord
	for e := 0; e < 4*n; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		w := weights[rng.Intn(len(weights))]
		entries = append(entries, sparse.Coord{Row: i, Col: j, Val: w})
		if i != j {
			entries = append(entries, sparse.Coord{Row: j, Col: i, Val: w})
		}
	}
	adj, err := sparse.NewFromCoords(n, n, entries)
	if err != nil {
		panic(err)
	}
	return adj
}

func TestLouvainMatchesMapOracle(t *testing.T) {
	edgeless, _ := sparse.NewFromCoords(7, 7, nil)
	graphs := []struct {
		name string
		adj  func() *sparse.CSR
	}{
		{"graph_id", graphIDGraph},
		{"mixed_rw", mixedRWGraph},
		{"clique-ring", func() *sparse.CSR { return ringOfCliques(40, 5) }},
		{"random-weighted", func() *sparse.CSR { return randomWeighted(400, 3) }},
		{"edgeless", func() *sparse.CSR { return edgeless }},
	}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"res0.5", Config{Resolution: 0.5}},
		{"res1", Config{}},
		{"res2", Config{Resolution: 2}},
		{"coarse-gain", Config{MinGain: 1e-3}},
	}
	for _, g := range graphs {
		adj := g.adj()
		for _, c := range configs {
			t.Run(g.name+"/"+c.name, func(t *testing.T) {
				got, err := Louvain(adj, c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameClustering(got, louvainMapOracle(adj, c.cfg)); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// FuzzLouvainMatchesMapOracle runs Louvain and its map oracle on small
// symmetric graphs: weights from a set with zero and near-ties, self
// loops, any resolution, gain threshold and level cap.
func FuzzLouvainMatchesMapOracle(f *testing.F) {
	f.Add([]byte{8, 1, 0, 0, 0, 1, 2, 1, 2, 2, 2, 3, 2, 4, 5, 2, 5, 6, 2, 6, 7, 2})
	f.Add([]byte{5, 0, 1, 1, 0, 0, 3, 0, 1, 0, 1, 2, 1, 3, 4, 1})
	f.Add([]byte{20, 2, 2, 2, 0, 1, 7, 2, 3, 7, 4, 5, 7, 1, 2, 4, 3, 4, 4, 9, 19, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 1 + int(data[0])%24
		cfg := Config{
			Resolution: []float64{0, 0.5, 2, 1.25}[data[1]%4],
			MinGain:    []float64{0, 1e-3, 0.1, 1e-12}[data[2]%4],
			MaxLevels:  int(data[3] % 5),
		}
		weights := []float64{0, 1, 1, 0.5, 2, 0.25, 3, 1e-300, 1 + 0x1p-52}
		var entries []sparse.Coord
		for p := data[4:]; len(p) >= 3; p = p[3:] {
			i, j, w := int(p[0])%n, int(p[1])%n, weights[int(p[2])%len(weights)]
			entries = append(entries, sparse.Coord{Row: i, Col: j, Val: w})
			if i != j {
				entries = append(entries, sparse.Coord{Row: j, Col: i, Val: w})
			}
		}
		adj, err := sparse.NewFromCoords(n, n, entries)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Louvain(adj, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameClustering(got, louvainMapOracle(adj, cfg)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLouvainLevelsAtCap: a run cut off by MaxLevels reports the levels
// it ran, not one more.
func TestLouvainLevelsAtCap(t *testing.T) {
	adj := knnGraph(dataset.INRIASim(2000, 1).Points)
	full, err := Louvain(adj, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Levels != 4 {
		t.Fatalf("uncapped run took %d levels, want 4", full.Levels)
	}
	for maxLevels := 1; maxLevels <= 3; maxLevels++ {
		cl, err := Louvain(adj, Config{MaxLevels: maxLevels})
		if err != nil {
			t.Fatal(err)
		}
		if cl.Levels != maxLevels {
			t.Errorf("MaxLevels %d: Levels = %d", maxLevels, cl.Levels)
		}
		// The uncapped run's fourth level moves nothing, so a cap of three
		// loses nothing but that level.
		if maxLevels == 3 && !slices.Equal(cl.Assign, full.Assign) {
			t.Errorf("MaxLevels 3 assignment differs from the uncapped run's")
		}
	}
}

// BenchmarkLouvain clusters the graphs of the two workloads whose
// builds run Louvain: graph_id's (INRIASim, n = 14000, K = 5) and
// mixed_rw's (the d = 8 mixture, n = 20000, K = 5).
func BenchmarkLouvain(b *testing.B) {
	for _, g := range []struct {
		name string
		adj  func() *sparse.CSR
	}{{"graph_id", graphIDGraph}, {"mixed_rw", mixedRWGraph}} {
		b.Run(g.name, func(b *testing.B) {
			adj := g.adj()
			b.ReportAllocs()
			b.ResetTimer()
			var cl *Clustering
			for i := 0; i < b.N; i++ {
				var err error
				if cl, err = Louvain(adj, Config{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cl.N), "clusters")
			b.ReportMetric(float64(cl.Levels), "levels")
		})
	}
}
