// Package cluster implements modularity-based graph clustering.
//
// Algorithm 1 of the paper partitions the k-NN graph with "the
// state-of-the-art clustering approach by Shiokawa et al. [17]", an
// incremental-aggregation modularity optimizer whose cost is linear in
// the number of edges and whose cluster count is chosen automatically.
// That code was never released, so this package provides a
// Louvain-style optimizer with the same contract: linear-time local
// moves, multi-level aggregation, automatic cluster count, maximized
// within-cluster edge mass. The permutation step only needs those
// properties (it wants few cross-cluster edges), so the substitution
// preserves the behaviour the paper relies on.
package cluster

import (
	"fmt"
	"slices"

	"mogul/internal/sparse"
)

// Clustering is a partition of graph nodes.
type Clustering struct {
	// Assign maps each node to a cluster id in [0, N).
	Assign []int
	// N is the number of clusters.
	N int
	// Modularity is the weighted modularity of the partition.
	Modularity float64
	// Levels is the number of aggregation levels the optimizer used.
	Levels int
}

// Config controls the optimizer.
type Config struct {
	// MaxLevels bounds aggregation depth (default 16).
	MaxLevels int
	// MaxSweeps bounds local-move sweeps per level (default 32).
	MaxSweeps int
	// MinGain is the modularity improvement below which a sweep stops
	// (default 1e-7).
	MinGain float64
	// Resolution scales the null-model term; 1 is classic modularity.
	Resolution float64
}

func (cfg *Config) withDefaults() Config {
	out := *cfg
	if out.MaxLevels <= 0 {
		out.MaxLevels = 16
	}
	if out.MaxSweeps <= 0 {
		out.MaxSweeps = 32
	}
	if out.MinGain <= 0 {
		out.MinGain = 1e-7
	}
	if out.Resolution <= 0 {
		out.Resolution = 1
	}
	return out
}

// Louvain clusters an undirected weighted graph given as a symmetric
// adjacency matrix with non-negative weights and zero diagonal
// (self-loops are tolerated and treated as internal weight). Node
// visiting order is fixed, so results are deterministic.
func Louvain(adj *sparse.CSR, cfg Config) (*Clustering, error) {
	if adj.Rows != adj.Cols {
		return nil, fmt.Errorf("cluster: adjacency must be square, got %dx%d", adj.Rows, adj.Cols)
	}
	c := cfg.withDefaults()
	n := adj.Rows
	if n == 0 {
		return &Clustering{Assign: nil, N: 0}, nil
	}

	// assignStack[level] maps super-nodes of that level to their
	// (compacted) community at the next level.
	current := adj
	assignStack := make([][]int, 0, c.MaxLevels)
	for len(assignStack) < c.MaxLevels {
		assign, improved := localMove(current, c)
		compacted, nComm := compactLabels(assign)
		assignStack = append(assignStack, compacted)
		// The super-graph is only built when another level will run on it.
		if !improved || nComm == current.Rows || len(assignStack) == c.MaxLevels {
			break
		}
		current = aggregate(current, compacted, nComm)
	}

	// Project the per-level assignments down to original nodes.
	final := make([]int, n)
	for i := range final {
		final[i] = i
	}
	for _, assign := range assignStack {
		for i := range final {
			final[i] = assign[final[i]]
		}
	}
	compact, nClusters := compactLabels(final)
	q := Modularity(adj, compact, c.Resolution)
	return &Clustering{Assign: compact, N: nClusters, Modularity: q, Levels: len(assignStack)}, nil
}

// localMove runs Louvain phase one: greedy node moves until no move
// improves modularity. It returns the community assignment (labels may
// be sparse) and whether any node moved at all.
func localMove(adj *sparse.CSR, cfg Config) (assign []int, improved bool) {
	n := adj.Rows
	assign = make([]int, n)
	degree := make([]float64, n)   // weighted degree incl. self loops counted twice
	selfLoop := make([]float64, n) // weight of the node's self loop
	var total2m float64            // 2m: total weight counting both directions
	for i := 0; i < n; i++ {
		cols, vals := adj.Row(i)
		for k, j := range cols {
			w := vals[k]
			if j == i {
				selfLoop[i] += w
			}
			degree[i] += w
			total2m += w
		}
		assign[i] = i
	}
	if total2m == 0 {
		// Edgeless graph: every node is its own community.
		return assign, false
	}

	// commTot[c] = sum of degrees of nodes in community c.
	commTot := append([]float64(nil), degree...)
	// Scratch: the weight from the moving node to each neighbour
	// community, one slot per community id; touched marks the slots the
	// node has reached (a weight cannot, since weights can sum to zero),
	// and candidates lists them. Only those slots are reset after each
	// node, so a sweep stays linear in the edges. Each slot sums its vals
	// in cols order, and the candidates are visited in ascending id, so
	// every gain and the sequence the near-tie break below sees are a
	// function of the graph alone — the bits of the map-based move this
	// replaced (FuzzLouvainMatchesMapOracle). The tie break is order
	// sensitive: the clustering (and with it every downstream structure)
	// must be a pure function of the input graph, or rebuild-equivalence
	// guarantees (Compact versus fresh Build) break.
	neighWeight := make([]float64, n)
	touched := make([]bool, n)
	candidates := make([]int, 0, 16)

	for sweep := 0; sweep < cfg.MaxSweeps; sweep++ {
		moved := 0
		for i := 0; i < n; i++ {
			ci := assign[i]
			candidates = candidates[:0]
			cols, vals := adj.Row(i)
			for k, j := range cols {
				if j == i {
					continue
				}
				c := assign[j]
				if !touched[c] {
					touched[c] = true
					candidates = append(candidates, c)
				}
				neighWeight[c] += vals[k]
			}
			slices.Sort(candidates)
			// Remove i from its community.
			commTot[ci] -= degree[i]
			// Gain of joining community c:
			//   w(i->c) - resolution * degree_i * commTot[c] / 2m
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
			for _, c := range candidates {
				neighWeight[c] = 0
				touched[c] = false
			}
		}
		if moved == 0 {
			break
		}
	}
	return assign, improved
}

// aggregate builds the community super-graph from compacted labels:
// one node per community, edge weights summed, internal weight
// becoming self loops.
func aggregate(adj *sparse.CSR, compact []int, nComm int) *sparse.CSR {
	entries := make([]sparse.Coord, 0, adj.NNZ())
	for i := 0; i < adj.Rows; i++ {
		cols, vals := adj.Row(i)
		ci := compact[i]
		for k, j := range cols {
			entries = append(entries, sparse.Coord{Row: ci, Col: compact[j], Val: vals[k]})
		}
	}
	m, err := sparse.NewFromCoords(nComm, nComm, entries)
	if err != nil {
		// Entries are produced from valid labels; failure is a bug.
		panic("cluster: aggregate produced invalid coordinates: " + err.Error())
	}
	return m
}

// compactLabels renumbers labels in [0, len(assign)) into [0, n)
// preserving first appearance order, which keeps results deterministic.
func compactLabels(assign []int) ([]int, int) {
	remap := make([]int, len(assign))
	for i := range remap {
		remap[i] = -1
	}
	out := make([]int, len(assign))
	next := 0
	for i, a := range assign {
		if remap[a] < 0 {
			remap[a] = next
			next++
		}
		out[i] = remap[a]
	}
	return out, next
}

// Modularity computes the weighted modularity of a partition:
// Q = sum_c (in_c/2m - resolution*(tot_c/2m)^2), with in_c twice the
// internal weight of community c.
func Modularity(adj *sparse.CSR, assign []int, resolution float64) float64 {
	if resolution <= 0 {
		resolution = 1
	}
	nComm := 0
	for _, a := range assign {
		if a+1 > nComm {
			nComm = a + 1
		}
	}
	in := make([]float64, nComm)
	tot := make([]float64, nComm)
	var total2m float64
	for i := 0; i < adj.Rows; i++ {
		cols, vals := adj.Row(i)
		for k, j := range cols {
			w := vals[k]
			total2m += w
			tot[assign[i]] += w
			if assign[i] == assign[j] {
				in[assign[i]] += w
			}
		}
	}
	if total2m == 0 {
		return 0
	}
	var q float64
	for c := 0; c < nComm; c++ {
		q += in[c]/total2m - resolution*(tot[c]/total2m)*(tot[c]/total2m)
	}
	return q
}
