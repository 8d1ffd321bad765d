package knn

import (
	"fmt"
	"math"

	"mogul/internal/binio"
	"mogul/internal/sparse"
	"mogul/internal/vec"
)

// Binary codec for k-NN graphs — a leaf record of the Mogul index file
// format (docs/FORMAT.md). The feature vectors ride along (vec.Rows's
// point-matrix record, one count and dim header) because out-of-sample
// search needs them at query time; a graph saved without points loads
// back with no rows and in-database search still works.

// Encode writes the graph as: K (int64), Sigma (float64), point count
// and dimension (int64), the point matrix, then the adjacency CSR
// record in the same precision. The matrix is vec.Rows's record: one
// length-prefixed row per point in format versions 2 and 3 and ONE flat
// row-major array from version 4 on (flat — which is what makes the
// aligned variant's zero-copy load possible), float32 when narrowed
// (always flat).
func (g *Graph) Encode(bw *binio.Writer, f32, flat bool) error {
	bw.Int(g.K)
	bw.Float64(g.Sigma)
	bw.Int(g.Points.Len())
	bw.Int(g.Points.Width())
	if err := g.Points.Encode(bw, f32, !flat); err != nil {
		return fmt.Errorf("knn: %w", err)
	}
	return g.Adj.Encode(bw, f32)
}

// Encode writes a graph-construction configuration as scalar
// fields — the `BCFG` leaf record that lets a loaded index rebuild its
// graph during compaction (docs/FORMAT.md).
func (cfg *GraphConfig) Encode(bw *binio.Writer) error {
	bw.Int(cfg.K)
	bw.Bool(cfg.Mutual)
	bw.Float64(cfg.Sigma)
	bw.Int(0) // reserved: the removed backend selector, always automatic
	bw.Bool(cfg.Approximate)
	bw.Int(cfg.ApproxThreshold)
	bw.Int(cfg.NProbe)
	// The seed is written as its full 64 bits, not narrowed through
	// int, which is 32 bits on some platforms.
	bw.Uint64(uint64(cfg.Seed))
	return bw.Err()
}

// removedBackends names the backend selectors earlier builds could
// persist in the reserved BCFG slot.
var removedBackends = map[int]string{1: "forced brute-force", 2: "forced IVF", 3: "VP-tree", 4: "IVF-PQ"}

// ReadConfig reads a configuration written by Encode, validating every
// field so corrupt input errors rather than producing a config that
// later panics a rebuild.
func ReadConfig(br *binio.Reader) (*GraphConfig, error) {
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

// ReadGraph reads a graph written by Encode with the same precision
// and point layout (vec.ReadRows: flat matrices as zero-copy views where
// the reader allows, per-point rows copied and checked for finiteness),
// and validates that the adjacency matrix is square and consistent with
// the point set.
func ReadGraph(br *binio.Reader, f32, flat bool) (*Graph, error) {
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
	points, err := vec.ReadRows(br, np, dim, f32, !flat)
	if err != nil {
		return nil, fmt.Errorf("knn: reading point matrix: %w", err)
	}
	adj, err := sparse.ReadCSR(br, f32)
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
