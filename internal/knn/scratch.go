package knn

import (
	"math"
	"slices"

	"mogul/internal/vec"
)

// Scratch holds the reusable per-worker state of a selection: the
// selected rows (which are also the output buffer), the batch kernel's
// distance buffer, and the tree's per-dimension offsets and tombstone
// mask. A zero Scratch is ready to use; one Scratch serves one
// goroutine at a time. Graph construction issues n k-NN queries back
// to back, and every engine attaches a query this way, so without reuse
// the per-query buffers alone would show up in profiles.
type Scratch struct {
	k int
	// bound is the key no row above may enter while fewer than k are
	// held: +Inf after Reset, a known k-th key after resetBelow.
	bound float64
	out   []Neighbor
	dist  []float64
	offSq []float64
	dead  []bool
	// rows and nodes count the rows scanned and the tree nodes visited
	// over the Scratch's life; benchmarks report them per query. They
	// are written at every node and leaf, and they end a Scratch of
	// exactly 128 bytes, two whole cache lines: a 136-byte Scratch, whose
	// lines it shares with other objects, made the d = 8 all-points
	// search ~20 % slower at n = 10⁵ (one Scratch per worker there), and
	// padded to 192 bytes it was not. Counters a search adds go
	// elsewhere (the leaf screen's go in its bundle).
	rows, nodes int
}

// IntoSearcher is a Searcher whose queries can run allocation-lean by
// reusing caller-owned scratch. The returned slice aliases the scratch
// and is valid until the next SearchInto call with the same Scratch.
// All in-package searchers implement it; Search and SearchInto return
// identical results by construction (Search delegates to SearchInto
// with a throwaway Scratch).
type IntoSearcher interface {
	Searcher
	SearchInto(sc *Scratch, q vec.Vector, k int) []Neighbor
}

// scanInto returns the k points nearest q by scanning all of them.
func scanInto(sc *Scratch, q vec.Vector, k int, points []vec.Vector) []Neighbor {
	if k <= 0 {
		return nil
	}
	sc.Reset(k)
	sc.dist = slices.Grow(sc.dist[:0], len(points))[:len(points)]
	vec.SquaredEuclideanBatch(q, points, sc.dist)
	sc.OfferAll(nil, sc.dist)
	return sc.drain()
}

// The selection rule every searcher and every engine's attach shares:
// the k smallest rows under the strict order (key, id), whatever order
// the rows are offered in. The searchers' key is the squared distance;
// an attach may offer another one (the graph engine offers distances).
// While a selection runs, sc.out holds at most sc.k rows in that order,
// so its last row is the one the next better one evicts. Every k here
// is small — a graph's k+1, an attach's ten to a few dozen — and few
// rows reach the threshold, so shifting them into place costs less than
// a heap's sifts would and leaves nothing to sort at the end.

// Reset empties the selection for the k smallest.
func (sc *Scratch) Reset(k int) { sc.resetBelow(k, math.Inf(1)) }

// resetBelow is Reset for a caller that knows k rows whose keys are at
// most bound: the k smallest are then all at or below it, so rows above
// it are skipped from the first offer on, and rows at it are still
// offered, so ties still break by id. The answer is Reset's.
func (sc *Scratch) resetBelow(k int, bound float64) {
	sc.k, sc.bound = k, bound
	sc.out = sc.out[:0]
}

// Rows returns the number of rows offered over the Scratch's life (for
// the tree, the rows it scanned, with those its leaf screen ruled out):
// a work counter for tests and benchmarks.
func (sc *Scratch) Rows() int { return sc.rows }

// theta is the key a row must not exceed to enter: the last held row's
// once k are held, the bound before (-Inf for k <= 0, which holds
// nothing).
func (sc *Scratch) theta() float64 {
	if len(sc.out) < sc.k {
		return sc.bound
	}
	if len(sc.out) == 0 {
		return math.Inf(-1)
	}
	return sc.out[len(sc.out)-1].Dist
}

// OfferAll offers row ids[j] (row j when ids is nil) at key keys[j], for
// every j, skipping rows the tree's tombstone mask marks. Only a row at
// or below the threshold can enter, so the loop tests that first and
// shifts the few that pass into place.
func (sc *Scratch) OfferAll(ids []int, keys []float64) {
	out, k := sc.out, sc.k
	th := sc.theta()
	for j, d := range keys {
		if d > th {
			continue
		}
		nb := Neighbor{ID: j, Dist: d}
		if ids != nil {
			nb.ID = ids[j]
		}
		if sc.dead != nil && sc.dead[nb.ID] {
			continue
		}
		pos := len(out)
		if pos == k {
			if pos == 0 || !after(out[pos-1], nb) {
				continue
			}
			pos--
		} else {
			out = append(out, nb)
		}
		for ; pos > 0 && after(out[pos-1], nb); pos-- {
			out[pos] = out[pos-1]
		}
		out[pos] = nb
		if len(out) == k {
			th = out[k-1].Dist
		}
	}
	sc.out = out
	sc.rows += len(keys)
}

// after reports whether a ranks behind b under (key, id).
func after(a, b Neighbor) bool {
	return a.Dist > b.Dist || a.Dist == b.Dist && a.ID > b.ID
}

// Sorted returns the selected rows in (key, id) order with the keys as
// offered. The result aliases sc and is valid until its next use.
func (sc *Scratch) Sorted() []Neighbor { return sc.out }

// drain is Sorted for the searchers, whose keys are squared distances:
// it turns them into distances.
func (sc *Scratch) drain() []Neighbor {
	for i := range sc.out {
		sc.out[i].Dist = math.Sqrt(sc.out[i].Dist)
	}
	return sc.out
}
