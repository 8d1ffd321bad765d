package main

import (
	"fmt"
	"os"
	"time"

	"mogul/internal/baseline"
	"mogul/internal/core"
	"mogul/internal/dataset"
	"mogul/internal/eval"
	"mogul/internal/knn"
	"mogul/internal/vec"
)

// sizes holds the per-dataset point counts of one scale preset.
type sizes struct {
	coil, pubfig, nus, inria int
}

var scalePresets = map[string]sizes{
	// small: everything (including the O(n^3) Inverse baseline) runs
	// in seconds; used by default in automated runs.
	"small": {coil: 1800, pubfig: 3000, nus: 5000, inria: 8000},
	// medium: minutes; the shape of every figure is already stable.
	"medium": {coil: 7200, pubfig: 12000, nus: 24000, inria: 48000},
	// large: tens of minutes; closest to the paper's raw sizes that a
	// single container sensibly runs (INRIA is still scaled down from
	// the paper's 1M).
	"large": {coil: 7200, pubfig: 58797, nus: 100000, inria: 200000},
}

// lab lazily builds and caches datasets, graphs, indexes and baselines
// so that experiments sharing a substrate do not pay for it twice.
type lab struct {
	scale   sizes
	seed    int64
	queries int
	// inverseMaxN caps the dense Inverse baseline (O(n^2) memory /
	// O(n^3) time), mirroring the paper's inability to run it on the
	// larger datasets.
	inverseMaxN int
	// fmrMaxN caps the FMR baseline (dense per-block eigensolver).
	fmrMaxN int
	// maxShards bounds the sharded experiment's S sweep (-shards).
	maxShards int

	datasets  map[string]*vec.Dataset
	graphs    map[string]*knn.Graph
	indexes   map[string]*core.Index
	exactIdx  map[string]*core.Index
	emrs      map[string]*baseline.EMR
	holdouts  map[string]*holdout
	graphTime map[string]time.Duration
}

type holdout struct {
	in      *vec.Dataset
	graph   *knn.Graph
	index   *core.Index
	emr     *baseline.EMR
	queries []vec.Vector
	labels  []int
}

// datasetNames is the paper's evaluation order (graph sizes ascending).
var datasetNames = []string{"COIL-100", "PubFig", "NUS-WIDE", "INRIA"}

func newLab(scale string, seed int64, queries, inverseMaxN, fmrMaxN int) (*lab, error) {
	preset, ok := scalePresets[scale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q (want small, medium or large)", scale)
	}
	return &lab{
		scale:       preset,
		seed:        seed,
		queries:     queries,
		inverseMaxN: inverseMaxN,
		fmrMaxN:     fmrMaxN,
		datasets:    map[string]*vec.Dataset{},
		graphs:      map[string]*knn.Graph{},
		indexes:     map[string]*core.Index{},
		exactIdx:    map[string]*core.Index{},
		emrs:        map[string]*baseline.EMR{},
		holdouts:    map[string]*holdout{},
		graphTime:   map[string]time.Duration{},
	}, nil
}

func (l *lab) dataset(name string) *vec.Dataset {
	if ds, ok := l.datasets[name]; ok {
		return ds
	}
	var ds *vec.Dataset
	switch name {
	case "COIL-100":
		objects := l.scale.coil / 72
		if objects < 1 {
			objects = 1
		}
		ds = dataset.COILSim(dataset.COILConfig{Objects: objects, Poses: 72, Seed: l.seed})
	case "PubFig":
		ds = dataset.PubFigSim(l.scale.pubfig, l.seed+1)
	case "NUS-WIDE":
		ds = dataset.NUSWideSim(l.scale.nus, l.seed+2)
	case "INRIA":
		ds = dataset.INRIASim(l.scale.inria, l.seed+3)
	default:
		fmt.Fprintf(os.Stderr, "unknown dataset %q\n", name)
		os.Exit(2)
	}
	l.datasets[name] = ds
	return ds
}

func (l *lab) graph(name string) *knn.Graph {
	if g, ok := l.graphs[name]; ok {
		return g
	}
	ds := l.dataset(name)
	t0 := time.Now()
	g, err := knn.BuildGraph(ds.Points, knn.GraphConfig{
		K: 5, // the paper's evaluation setting
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "building %s graph: %v\n", name, err)
		os.Exit(1)
	}
	l.graphTime[name] = time.Since(t0)
	l.graphs[name] = g
	fmt.Fprintf(os.Stderr, "[lab] %s: n=%d edges=%d graph built in %v\n",
		ds.Name, g.Len(), g.NumEdges(), l.graphTime[name].Round(time.Millisecond))
	return g
}

func (l *lab) index(name string) *core.Index {
	if ix, ok := l.indexes[name]; ok {
		return ix
	}
	ix, err := core.NewIndex(l.graph(name), core.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "building %s index: %v\n", name, err)
		os.Exit(1)
	}
	l.indexes[name] = ix
	st := ix.Stats()
	fmt.Fprintf(os.Stderr, "[lab] %s: Mogul index N=%d border=%d nnz(L)=%d precompute=%v\n",
		name, st.NumClusters, st.BorderSize, st.FactorNNZ, st.PrecomputeTime().Round(time.Millisecond))
	return ix
}

func (l *lab) exactIndex(name string) *core.Index {
	if ix, ok := l.exactIdx[name]; ok {
		return ix
	}
	ix, err := core.NewIndex(l.graph(name), core.Options{Exact: true})
	if err != nil {
		fmt.Fprintf(os.Stderr, "building %s exact index: %v\n", name, err)
		os.Exit(1)
	}
	l.exactIdx[name] = ix
	return ix
}

func (l *lab) emr(name string, anchors int) *baseline.EMR {
	key := fmt.Sprintf("%s/%d", name, anchors)
	if e, ok := l.emrs[key]; ok {
		return e
	}
	ds := l.dataset(name)
	e, err := baseline.NewEMR(ds.Points, core.DefaultAlpha, baseline.EMRConfig{
		NumAnchors: anchors, Seed: l.seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "building %s EMR: %v\n", name, err)
		os.Exit(1)
	}
	l.emrs[key] = e
	return e
}

// holdoutFor splits a dataset for out-of-sample experiments, reusing
// one split per dataset across experiments.
func (l *lab) holdoutFor(name string, anchors int) *holdout {
	if h, ok := l.holdouts[name]; ok {
		return h
	}
	ds := l.dataset(name)
	in, queries, labels, err := dataset.HoldOut(ds, 0.01, l.seed+7)
	if err != nil {
		fmt.Fprintf(os.Stderr, "holdout %s: %v\n", name, err)
		os.Exit(1)
	}
	if len(queries) > 50 {
		queries = queries[:50]
		if labels != nil {
			labels = labels[:50]
		}
	}
	g, err := knn.BuildGraph(in.Points, knn.GraphConfig{K: 5})
	if err != nil {
		fmt.Fprintf(os.Stderr, "holdout graph %s: %v\n", name, err)
		os.Exit(1)
	}
	ix, err := core.NewIndex(g, core.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "holdout index %s: %v\n", name, err)
		os.Exit(1)
	}
	e, err := baseline.NewEMR(in.Points, core.DefaultAlpha, baseline.EMRConfig{
		NumAnchors: anchors, Seed: l.seed,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "holdout EMR %s: %v\n", name, err)
		os.Exit(1)
	}
	h := &holdout{in: in, graph: g, index: ix, emr: e, queries: queries, labels: labels}
	l.holdouts[name] = h
	return h
}

// queryNodes returns deterministic query node ids spread over the
// dataset.
func (l *lab) queryNodes(name string) []int {
	n := l.graph(name).Len()
	count := l.queries
	if count > n {
		count = n
	}
	out := make([]int, count)
	for i := range out {
		out[i] = int((int64(i)*2654435761 + 17) % int64(n)) // Knuth multiplicative spread, deterministic
	}
	return out
}

// medianSearchTime times fn over the lab's query nodes and returns the
// median per-query wall time.
func medianSearchTime(queries []int, fn func(q int)) time.Duration {
	times := make([]time.Duration, 0, len(queries))
	for _, q := range queries {
		t0 := time.Now()
		fn(q)
		times = append(times, time.Since(t0))
	}
	return medianDuration(times)
}

func medianDuration(ts []time.Duration) time.Duration {
	if len(ts) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ts...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[len(sorted)/2]
}

// csvOutput switches emitTable from aligned text to CSV; set by the
// -format flag in main.
var csvOutput bool

// emitTable renders one experiment table in the selected format.
func emitTable(rows [][]string) {
	if csvOutput {
		eval.CSVTable(os.Stdout, rows)
		return
	}
	eval.Table(os.Stdout, rows)
}
