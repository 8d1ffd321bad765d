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
//
// It writes A' row by row: row OldToNew[i] of A' is row i of A, its
// columns mapped through OldToNew and insertion-sorted (k-NN graph rows
// are short). A's columns are strictly increasing within a row
// (Validate), so the mapped ones are distinct and no entry is summed.
// Every value is stored as 0 + v, the sum NewFromCoords forms, so a −0
// weight is stored as +0 there too.
func (p *Permutation) PermuteSym(a *CSR) (*CSR, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("sparse: PermuteSym needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if a.Rows != p.Len() {
		return nil, fmt.Errorf("sparse: permutation length %d does not match matrix size %d", p.Len(), a.Rows)
	}
	n := a.Rows
	out := &CSR{RowPtr: make([]int, n+1), Col: make([]int, a.NNZ()), Val: make([]float64, a.NNZ()), Rows: n, Cols: n}
	for r, old := range p.NewToOld {
		out.RowPtr[r+1] = out.RowPtr[r] + a.RowPtr[old+1] - a.RowPtr[old]
	}
	for r, old := range p.NewToOld {
		cols, vals := a.Row(old)
		lo := out.RowPtr[r]
		oc, ov := out.Col[lo:lo+len(cols)], out.Val[lo:lo+len(cols)]
		for k, j := range cols {
			c, v := p.OldToNew[j], 0+vals[k]
			pos := k
			for ; pos > 0 && oc[pos-1] > c; pos-- {
				oc[pos], ov[pos] = oc[pos-1], ov[pos-1]
			}
			oc[pos], ov[pos] = c, v
		}
	}
	return out, nil
}
