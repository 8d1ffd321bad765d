package knn

import (
	"math/rand"
	"strconv"
	"testing"
	"unsafe"

	"mogul/internal/vec"
)

func scratchTestPoints(n, dim int, seed int64) []vec.Vector {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]vec.Vector, n)
	for i := range pts {
		p := make(vec.Vector, dim)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		pts[i] = p
	}
	return pts
}

// TestSearchIntoMatchesSearch pins the delegation contract: for every
// backend, SearchInto with reused scratch returns exactly what Search
// returns, query after query.
func TestSearchIntoMatchesSearch(t *testing.T) {
	pts := scratchTestPoints(400, 6, 3)
	backends := map[string]IntoSearcher{
		"brute": NewBruteForce(pts),
		"tree":  searchTree(pts),
	}
	for name, s := range backends {
		var sc Scratch
		for qi := 0; qi < 25; qi++ {
			q := pts[qi*7%len(pts)]
			want := s.Search(q, 10)
			got := s.SearchInto(&sc, q, 10)
			if len(got) != len(want) {
				t.Fatalf("%s query %d: %d results, want %d", name, qi, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s query %d result %d: %+v != %+v", name, qi, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSearchIntoDoesNotAllocate: a warmed scratch makes queries on
// every backend allocation-free, so the n queries of a graph build
// allocate nothing per query.
func TestSearchIntoDoesNotAllocate(t *testing.T) {
	pts := scratchTestPoints(500, 6, 4)
	for name, s := range map[string]IntoSearcher{
		"brute": NewBruteForce(pts),
		"tree":  searchTree(pts),
	} {
		var sc Scratch
		s.SearchInto(&sc, pts[0], 12) // warm the scratch
		allocs := testing.AllocsPerRun(20, func() {
			s.SearchInto(&sc, pts[3], 12)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per SearchInto, want 0", name, allocs)
		}
	}
}

// TestScratchIsTwoCacheLines pins Scratch at 128 bytes on 64-bit
// platforms (see its rows and nodes): at 136 the d = 8 all-points
// search ran ~20 % slower at n = 10⁵.
func TestScratchIsTwoCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(Scratch{}); strconv.IntSize == 64 && size != 128 {
		t.Fatalf("Scratch is %d bytes, want 128", size)
	}
}
