package cluster

import (
	"fmt"

	"mogul/internal/binio"
)

// Binary codec for clusterings — a leaf record of the Mogul index file
// format (docs/FORMAT.md). The index container stores the partition in
// permuted node order; this codec only guarantees that Assign is a
// valid map into [0, N).

// Encode writes the clustering as: N, Levels (int64), Modularity
// (float64), then Assign as a length-prefixed slice.
func (c *Clustering) Encode(bw *binio.Writer) error {
	bw.Int(c.N)
	bw.Int(c.Levels)
	bw.Float64(c.Modularity)
	bw.Ints(c.Assign)
	return bw.Err()
}

// ReadClustering reads a clustering written by Encode and validates
// that every assignment lies in [0, N).
func ReadClustering(br *binio.Reader) (*Clustering, error) {
	n := br.Int()
	levels := br.Int()
	mod := br.Float64()
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("cluster: reading clustering header: %w", err)
	}
	if n < 0 || n > binio.MaxCount || levels < 0 {
		return nil, fmt.Errorf("cluster: corrupt clustering header (N=%d, levels=%d)", n, levels)
	}
	assign := br.Ints(binio.MaxCount)
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("cluster: reading assignments: %w", err)
	}
	for node, a := range assign {
		if a < 0 || a >= n {
			return nil, fmt.Errorf("cluster: node %d assigned to cluster %d outside [0,%d)", node, a, n)
		}
	}
	return &Clustering{Assign: assign, N: n, Modularity: mod, Levels: levels}, nil
}
