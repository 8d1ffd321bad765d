package mogul

// Determinism contract of the parallel build pipeline (see
// docs/PERFORMANCE.md): precompute parallelized over internal/par must
// produce byte-identical Save output and bit-identical scores at any
// GOMAXPROCS, because block shapes and reduction orders are fixed
// functions of the input size, never of the worker count. These tests
// pin that contract for both the exact engine (Build) and the
// anchor-graph engine (BuildEMR), and the truncated-eigenbasis engine
// (BuildSpectral) at 1, 2, and 8 workers.

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"testing"

	"mogul/internal/knn"
)

var determinismProcs = []int{1, 2, 8}

// withProcs runs fn at the given GOMAXPROCS and restores the previous
// setting.
func withProcs(t *testing.T, procs int, fn func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

func determinismPoints(n int) []Vector {
	ds := NewMixture(MixtureConfig{
		N: n, Classes: n / 20, Dim: 8, WithinStd: 0.25, Separation: 3.0, Seed: 7,
	})
	return ds.Points
}

// saveAndScores builds with build, serializes the result, and collects
// TopK answers for a spread of queries.
func topKSignature(t *testing.T, r Retriever, n int) [][]Result {
	t.Helper()
	queries := []int{0, 1, n / 3, n / 2, n - 1}
	out := make([][]Result, 0, len(queries))
	for _, q := range queries {
		res, err := r.TopK(q, 10)
		if err != nil {
			t.Fatalf("TopK(%d): %v", q, err)
		}
		out = append(out, res)
	}
	return out
}

func compareSignatures(t *testing.T, procs int, ref, got [][]Result) {
	t.Helper()
	for qi := range ref {
		if len(ref[qi]) != len(got[qi]) {
			t.Fatalf("GOMAXPROCS=%d query %d: %d results, want %d", procs, qi, len(got[qi]), len(ref[qi]))
		}
		for r := range ref[qi] {
			if ref[qi][r].Node != got[qi][r].Node ||
				math.Float64bits(ref[qi][r].Score) != math.Float64bits(got[qi][r].Score) {
				t.Fatalf("GOMAXPROCS=%d query %d rank %d: got (%d, %x), want (%d, %x)",
					procs, qi, r,
					got[qi][r].Node, math.Float64bits(got[qi][r].Score),
					ref[qi][r].Node, math.Float64bits(ref[qi][r].Score))
			}
		}
	}
}

// TestBuildDeterministicAcrossGOMAXPROCS covers the graph engine's two
// factors over the exact k-NN graph, which the k-d tree searches
// (knn.Tree): the container is the same bytes at every worker count,
// and its graph is the brute-force scan's.
func TestBuildDeterministicAcrossGOMAXPROCS(t *testing.T) {
	const n = 1200
	pts := determinismPoints(n)
	for _, opts := range []Options{{Exact: true, Seed: 3}, {Seed: 3}} {
		var refBytes []byte
		var refSig [][]Result
		for _, procs := range determinismProcs {
			withProcs(t, procs, func() {
				ix, err := Build(pts, opts)
				if err != nil {
					t.Fatalf("Exact=%v GOMAXPROCS=%d: Build: %v", opts.Exact, procs, err)
				}
				// Build wall-times are the one nondeterministic diagnostic in
				// the container; everything else must be byte-stable.
				ix.core.ClearTimings()
				var buf bytes.Buffer
				if err := ix.Save(&buf); err != nil {
					t.Fatalf("Exact=%v GOMAXPROCS=%d: Save: %v", opts.Exact, procs, err)
				}
				sig := topKSignature(t, ix, n)
				if refBytes == nil {
					refBytes, refSig = buf.Bytes(), sig
					checkBruteForceEdges(t, ix, pts)
					return
				}
				if !bytes.Equal(refBytes, buf.Bytes()) {
					t.Fatalf("Exact=%v GOMAXPROCS=%d: Save output differs from GOMAXPROCS=%d (%d vs %d bytes)",
						opts.Exact, procs, determinismProcs[0], buf.Len(), len(refBytes))
				}
				compareSignatures(t, procs, refSig, sig)
			})
		}
	}
}

// checkBruteForceEdges compares the index's graph with the union of the
// brute-force k-NN lists (k = 5, the default): the same neighbours for
// every item. internal/knn pins the weights and sigma to the bit.
func checkBruteForceEdges(t *testing.T, ix *Index, pts []Vector) {
	t.Helper()
	want := make([][]int, len(pts))
	for i, list := range knn.AllKNN(pts, knn.NewBruteForce(pts), 5) {
		for _, nb := range list {
			want[i] = append(want[i], nb.ID)
			want[nb.ID] = append(want[nb.ID], i)
		}
	}
	for i := range want {
		slices.Sort(want[i])
		want[i] = slices.Compact(want[i])
		got, _, err := ix.Neighbors(i)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want[i]) {
			t.Fatalf("item %d: graph neighbours %v, brute-force lists give %v", i, got, want[i])
		}
	}
}

func TestBuildSpectralDeterministicAcrossGOMAXPROCS(t *testing.T) {
	const n = 2000
	pts := determinismPoints(n)
	opts := Options{Seed: 3}
	sopts := SpectralOptions{Rank: 48}

	var refBytes []byte
	var refSig [][]Result
	for _, procs := range determinismProcs {
		withProcs(t, procs, func() {
			e, err := BuildSpectral(pts, opts, sopts)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: BuildSpectral: %v", procs, err)
			}
			// Build wall-times are the one nondeterministic diagnostic in
			// the container; everything else must be byte-stable.
			e.st.stats.ClusterTime = 0
			e.st.stats.FactorTime = 0
			var buf bytes.Buffer
			if err := e.Save(&buf); err != nil {
				t.Fatalf("GOMAXPROCS=%d: Save: %v", procs, err)
			}
			sig := topKSignature(t, e, n)
			if refBytes == nil {
				refBytes, refSig = buf.Bytes(), sig
				return
			}
			if !bytes.Equal(refBytes, buf.Bytes()) {
				t.Fatalf("GOMAXPROCS=%d: Save output differs from GOMAXPROCS=%d (%d vs %d bytes)",
					procs, determinismProcs[0], buf.Len(), len(refBytes))
			}
			compareSignatures(t, procs, refSig, sig)
		})
	}
}

func TestBuildEMRDeterministicAcrossGOMAXPROCS(t *testing.T) {
	const n = 2000
	pts := determinismPoints(n)
	opts := Options{Seed: 3}
	eopts := EMROptions{NumAnchors: 64, NumNearestAnchors: 6}

	var refBytes []byte
	var refSig [][]Result
	for _, procs := range determinismProcs {
		withProcs(t, procs, func() {
			e, err := BuildEMR(pts, opts, eopts)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: BuildEMR: %v", procs, err)
			}
			// Build wall-times are the one nondeterministic diagnostic in
			// the container; everything else must be byte-stable.
			e.st.stats.ClusterTime = 0
			e.st.stats.FactorTime = 0
			var buf bytes.Buffer
			if err := e.Save(&buf); err != nil {
				t.Fatalf("GOMAXPROCS=%d: Save: %v", procs, err)
			}
			sig := topKSignature(t, e, n)
			if refBytes == nil {
				refBytes, refSig = buf.Bytes(), sig
				return
			}
			if !bytes.Equal(refBytes, buf.Bytes()) {
				t.Fatalf("GOMAXPROCS=%d: Save output differs from GOMAXPROCS=%d (%d vs %d bytes)",
					procs, determinismProcs[0], buf.Len(), len(refBytes))
			}
			compareSignatures(t, procs, refSig, sig)
		})
	}
}
