package knn

import (
	"fmt"
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

// Encode writes the graph as: K (int64), Sigma (float64), point count
// and dimension (int64), the point matrix, then the adjacency CSR
// record in the same precision. The matrix is one length-prefixed row
// per point in format versions 2 and 3 and ONE flat row-major array
// from version 4 on (flat — which is what makes the aligned variant's
// zero-copy load possible), float32 when f32 (always flat).
func (g *Graph) Encode(bw *binio.Writer, f32, flat bool) error {
	bw.Int(g.K)
	bw.Float64(g.Sigma)
	np, dim := g.NumPoints(), g.PointDim()
	bw.Int(np)
	bw.Int(dim)
	for i, p := range g.Points {
		if len(p) != dim {
			return fmt.Errorf("knn: point %d has dim %d, want %d", i, len(p), dim)
		}
	}
	switch {
	case f32:
		if np > 0 && g.Pts32 == nil {
			return fmt.Errorf("knn: f32 write of a float64 graph")
		}
		bw.Float32s(g.Pts32)
	case flat:
		all := make([]float64, 0, np*dim)
		for _, p := range g.Points {
			all = append(all, p...)
		}
		bw.Floats(all)
	default:
		for _, p := range g.Points {
			bw.Floats(p)
		}
	}
	if err := bw.Err(); err != nil {
		return err
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
// and point layout, using zero-copy views where the reader allows (the
// float64 point vectors alias the matrix they were read from), and
// validates that the adjacency matrix is square and consistent with the
// point set.
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
	if np > 0 && (dim == 0 || np > binio.MaxCount/dim) {
		return nil, fmt.Errorf("knn: corrupt graph shape %dx%d", np, dim)
	}
	g := &Graph{K: k, Sigma: sigma}
	switch {
	case f32:
		g.Pts32 = br.Float32sView(np * dim)
		if err := br.Err(); err != nil {
			return nil, fmt.Errorf("knn: reading point matrix: %w", err)
		}
		if len(g.Pts32) != np*dim {
			return nil, fmt.Errorf("knn: point matrix has %d entries, want %d", len(g.Pts32), np*dim)
		}
		if np > 0 {
			g.Dim32 = dim
		} else {
			g.Pts32 = nil
		}
	case flat:
		all := br.FloatsView(np * dim)
		if err := br.Err(); err != nil {
			return nil, fmt.Errorf("knn: reading point matrix: %w", err)
		}
		if len(all) != np*dim {
			return nil, fmt.Errorf("knn: point matrix has %d entries, want %d", len(all), np*dim)
		}
		if np > 0 {
			g.Points = make([]vec.Vector, np)
			for i := range g.Points {
				g.Points[i] = all[i*dim : (i+1)*dim]
			}
		}
	case np > 0:
		// Grow incrementally rather than trusting np for the up-front
		// allocation: a corrupt count then fails on the missing bytes
		// instead of attempting a giant make.
		g.Points = make([]vec.Vector, 0, min(np, 1<<17))
		for i := 0; i < np; i++ {
			p := br.FloatsView(dim)
			if err := br.Err(); err != nil {
				return nil, fmt.Errorf("knn: reading point %d: %w", i, err)
			}
			if len(p) != dim {
				return nil, fmt.Errorf("knn: point %d has dim %d, want %d", i, len(p), dim)
			}
			g.Points = append(g.Points, p)
		}
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
	g.Adj = adj
	return g, nil
}
