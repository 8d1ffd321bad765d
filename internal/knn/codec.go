package knn

import (
	"fmt"
	"io"
	"math"

	"mogul/internal/binio"
	"mogul/internal/sparse"
	"mogul/internal/vec"
)

// Binary codec for k-NN graphs — a leaf record of the Mogul index file
// format (docs/FORMAT.md). The feature vectors ride along (flattened,
// one dim header) because out-of-sample search needs them at query
// time; a graph saved without points loads back with Points == nil and
// in-database search still works.

// WriteTo writes the graph as: K (int64), Sigma (float64), point count
// and dimension (int64), the flattened row-major point matrix, then
// the adjacency CSR record.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	bw := binio.NewWriter(w)
	bw.Int(g.K)
	bw.Float64(g.Sigma)
	dim := 0
	if len(g.Points) > 0 {
		dim = len(g.Points[0])
	}
	bw.Int(len(g.Points))
	bw.Int(dim)
	for i, p := range g.Points {
		if len(p) != dim {
			return bw.Count(), fmt.Errorf("knn: point %d has dim %d, want %d", i, len(p), dim)
		}
		bw.Floats(p)
	}
	if err := bw.Err(); err != nil {
		return bw.Count(), err
	}
	an, err := g.Adj.WriteTo(w)
	return bw.Count() + an, err
}

// WriteConfig writes a graph-construction configuration as scalar
// fields — the `BCFG` leaf record that lets a loaded index rebuild its
// graph during compaction (docs/FORMAT.md).
func (cfg *GraphConfig) WriteConfig(w io.Writer) (int64, error) {
	bw := binio.NewWriter(w)
	bw.Int(cfg.K)
	bw.Int(boolInt(cfg.Mutual))
	bw.Float64(cfg.Sigma)
	bw.Int(0) // reserved: the removed backend selector, always automatic
	bw.Int(boolInt(cfg.Approximate))
	bw.Int(cfg.ApproxThreshold)
	bw.Int(cfg.NProbe)
	// The seed is written as its full 64 bits, not narrowed through
	// int, which is 32 bits on some platforms.
	bw.Uint64(uint64(cfg.Seed))
	return bw.Count(), bw.Err()
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// removedBackends names the backend selectors earlier builds could
// persist in the reserved BCFG slot.
var removedBackends = map[int]string{1: "forced brute-force", 2: "forced IVF", 3: "VP-tree", 4: "IVF-PQ"}

// ReadConfig reads a configuration written by WriteConfig, validating
// every field so corrupt input errors rather than producing a config
// that later panics a rebuild.
func ReadConfig(r io.Reader) (*GraphConfig, error) {
	br := binio.NewReader(r)
	cfg := &GraphConfig{}
	cfg.K = br.Int()
	mutual := br.Int()
	cfg.Sigma = br.Float64()
	backend := br.Int()
	approx := br.Int()
	cfg.ApproxThreshold = br.Int()
	cfg.NProbe = br.Int()
	cfg.Seed = int64(br.Uint64())
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("knn: reading graph config: %w", err)
	}
	if cfg.K < 1 || cfg.K > binio.MaxCount {
		return nil, fmt.Errorf("knn: corrupt graph config: k=%d", cfg.K)
	}
	if mutual != 0 && mutual != 1 || approx != 0 && approx != 1 {
		return nil, fmt.Errorf("knn: corrupt graph config: flags %d/%d", mutual, approx)
	}
	if backend != 0 {
		// The slot once selected a forced search structure. Those are
		// gone; rebuilding such a graph with the automatic choice would
		// silently change it, so refuse.
		if name, ok := removedBackends[backend]; ok {
			return nil, fmt.Errorf("knn: graph config selects the removed %s backend (id %d); this build only supports the automatic choice (0)", name, backend)
		}
		return nil, fmt.Errorf("knn: corrupt graph config: backend %d", backend)
	}
	if math.IsNaN(cfg.Sigma) || math.IsInf(cfg.Sigma, 0) || cfg.Sigma < 0 {
		return nil, fmt.Errorf("knn: corrupt graph config: sigma=%g", cfg.Sigma)
	}
	if cfg.ApproxThreshold < 0 || cfg.ApproxThreshold > binio.MaxCount ||
		cfg.NProbe < 0 || cfg.NProbe > binio.MaxCount {
		return nil, fmt.Errorf("knn: corrupt graph config: threshold=%d nprobe=%d", cfg.ApproxThreshold, cfg.NProbe)
	}
	cfg.Mutual = mutual == 1
	cfg.Approximate = approx == 1
	return cfg, nil
}

// ReadGraph reads a graph written by WriteTo, validating that the
// adjacency matrix is square and consistent with the point set.
func ReadGraph(r io.Reader) (*Graph, error) {
	br := binio.NewReader(r)
	k := br.Int()
	sigma := br.Float64()
	np := br.Int()
	dim := br.Int()
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("knn: reading graph header: %w", err)
	}
	if k < 0 || np < 0 || np > binio.MaxCount || dim < 0 || dim > binio.MaxCount {
		return nil, fmt.Errorf("knn: corrupt graph header (k=%d, points=%d, dim=%d)", k, np, dim)
	}
	if sigma <= 0 || math.IsNaN(sigma) || math.IsInf(sigma, 0) {
		return nil, fmt.Errorf("knn: corrupt graph bandwidth sigma=%g", sigma)
	}
	var points []vec.Vector
	if np > 0 {
		// Grow incrementally rather than trusting np for the up-front
		// allocation: a corrupt count then fails on the missing bytes
		// instead of attempting a giant make.
		points = make([]vec.Vector, 0, min(np, 1<<17))
		for i := 0; i < np; i++ {
			p := br.Floats(dim)
			if err := br.Err(); err != nil {
				return nil, fmt.Errorf("knn: reading point %d: %w", i, err)
			}
			if len(p) != dim {
				return nil, fmt.Errorf("knn: point %d has dim %d, want %d", i, len(p), dim)
			}
			points = append(points, p)
		}
	}
	adj, err := sparse.ReadCSR(r)
	if err != nil {
		return nil, fmt.Errorf("knn: reading adjacency: %w", err)
	}
	if adj.Rows != adj.Cols {
		return nil, fmt.Errorf("knn: adjacency is %dx%d, want square", adj.Rows, adj.Cols)
	}
	if np > 0 && adj.Rows != np {
		return nil, fmt.Errorf("knn: adjacency over %d nodes but %d points", adj.Rows, np)
	}
	return &Graph{Adj: adj, K: k, Sigma: sigma, Points: points}, nil
}
