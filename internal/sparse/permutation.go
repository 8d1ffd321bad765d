package sparse

import "fmt"

// Permutation represents the orthogonal node-permutation matrix P of
// the paper (Section 4.2.1): P_ij = 1 means original node j is placed
// at permuted position i, so A' = P A P^T satisfies
// A'[i][j] = A[NewToOld[i]][NewToOld[j]].
type Permutation struct {
	// NewToOld maps a permuted position to the original node id.
	NewToOld []int
	// OldToNew maps an original node id to its permuted position.
	OldToNew []int
}

// NewPermutation builds a Permutation from a newToOld ordering. It
// validates that the slice is a bijection on [0, n).
func NewPermutation(newToOld []int) (*Permutation, error) {
	n := len(newToOld)
	oldToNew := make([]int, n)
	seen := make([]bool, n)
	for pos, old := range newToOld {
		if old < 0 || old >= n {
			return nil, fmt.Errorf("sparse: permutation entry %d out of range [0,%d)", old, n)
		}
		if seen[old] {
			return nil, fmt.Errorf("sparse: permutation repeats node %d", old)
		}
		seen[old] = true
		oldToNew[old] = pos
	}
	return &Permutation{NewToOld: append([]int(nil), newToOld...), OldToNew: oldToNew}, nil
}

// IdentityPermutation returns the identity permutation on n nodes.
func IdentityPermutation(n int) *Permutation {
	p := &Permutation{NewToOld: make([]int, n), OldToNew: make([]int, n)}
	for i := 0; i < n; i++ {
		p.NewToOld[i] = i
		p.OldToNew[i] = i
	}
	return p
}

// Len returns the number of elements permuted.
func (p *Permutation) Len() int { return len(p.NewToOld) }

// Apply computes x' = P x: element at original index i moves to
// position OldToNew[i]. The result is a fresh slice.
func (p *Permutation) Apply(x []float64) []float64 {
	if len(x) != p.Len() {
		panic(fmt.Sprintf("sparse: Permutation.Apply length mismatch %d != %d", len(x), p.Len()))
	}
	out := make([]float64, len(x))
	for pos, old := range p.NewToOld {
		out[pos] = x[old]
	}
	return out
}

// ApplyInverse computes x = P^T x': the inverse of Apply.
func (p *Permutation) ApplyInverse(x []float64) []float64 {
	if len(x) != p.Len() {
		panic(fmt.Sprintf("sparse: Permutation.ApplyInverse length mismatch %d != %d", len(x), p.Len()))
	}
	out := make([]float64, len(x))
	for pos, old := range p.NewToOld {
		out[old] = x[pos]
	}
	return out
}

// PermuteSym computes A' = P A P^T for a square matrix A, i.e. the
// symmetric renumbering of a graph adjacency matrix (Equation 3 of the
// paper rewrites the ranking computation in this permuted basis).
func (p *Permutation) PermuteSym(a *CSR) (*CSR, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: PermuteSym needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if a.Rows != p.Len() {
		return nil, fmt.Errorf("sparse: permutation length %d does not match matrix size %d", p.Len(), a.Rows)
	}
	entries := make([]Coord, 0, a.NNZ())
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		pi := p.OldToNew[i]
		for k, j := range cols {
			entries = append(entries, Coord{Row: pi, Col: p.OldToNew[j], Val: vals[k]})
		}
	}
	return NewFromCoords(a.Rows, a.Cols, entries)
}
