package main

import (
	"bytes"
	"fmt"
	"runtime"

	"mogul"
)

// expMemory reports the resident footprint of each serving engine in
// both storage precisions: live heap bytes per point (measured as the
// post-GC HeapAlloc delta around the build, so it counts exactly what
// keeping the engine alive costs) and the saved container's bytes per
// point (what a -mmap server pays in shared page cache instead). The
// acceptance shape: f32 roughly halves the bulk-array share of both
// columns, and the residual gap between heap and disk is the
// per-engine bookkeeping that never narrows (int edge indices, bound
// tables, the delta log).
func expMemory(l *lab) {
	n := l.scale.nus
	// Each measurement generates its own copy of the dataset and drops
	// it before the post-build heap reading: engines alias f64 input
	// vectors instead of copying them, so the aliased points must be
	// charged to the engine or the f64 rows under-count their real
	// resident cost (and the f32 rows, which copy into fresh float32
	// arrays and let the input die, would look paradoxically larger).
	mkPoints := func() []mogul.Vector {
		return mogul.NewMixture(mogul.MixtureConfig{
			N: n, Classes: n / 10, Dim: 8, WithinStd: 0.25, Separation: 3.0, Seed: l.seed,
		}).Points
	}

	type build func(pts []mogul.Vector, o mogul.Options) (mogul.Retriever, error)
	engines := []struct {
		name string
		mk   build
	}{
		{"graph", func(pts []mogul.Vector, o mogul.Options) (mogul.Retriever, error) {
			return mogul.Build(pts, o)
		}},
		{"emr", func(pts []mogul.Vector, o mogul.Options) (mogul.Retriever, error) {
			return mogul.BuildEMR(pts, o, mogul.EMROptions{})
		}},
		{"spectral", func(pts []mogul.Vector, o mogul.Options) (mogul.Retriever, error) {
			return mogul.BuildSpectral(pts, o, mogul.SpectralOptions{})
		}},
	}

	rows := [][]string{{"engine", "precision", "heap [B/point]", "disk [B/point]", "f32/f64 heap"}}
	for _, eng := range engines {
		var f64Heap float64
		for _, prec := range []mogul.Precision{mogul.F64, mogul.F32} {
			opts := mogul.Options{Seed: l.seed, GraphK: 6, Precision: prec}
			heap, disk, err := measureEngine(eng.mk, mkPoints, opts, n)
			if err != nil {
				fatal(err)
			}
			label, ratio := "f64", "-"
			if prec == mogul.F32 {
				label = "f32"
				ratio = fmt.Sprintf("%.2fx", heap/f64Heap)
			} else {
				f64Heap = heap
			}
			rows = append(rows, []string{
				eng.name, label,
				fmt.Sprintf("%.0f", heap), fmt.Sprintf("%.0f", disk), ratio,
			})
		}
	}
	fmt.Printf("Resident and serialized engine footprint (mixture, n=%d, dim=8; post-GC HeapAlloc delta around the build)\n", n)
	emitTable(rows)
}

// measureEngine builds one engine and returns (live heap bytes/point,
// serialized bytes/point). The heap figure is the post-GC HeapAlloc
// delta with the engine the only thing kept alive across the two
// readings: the input points are dropped before the second reading, so
// whatever the engine aliased is charged to it and the rest (plus all
// build scratch) is garbage by then.
func measureEngine(mk func(pts []mogul.Vector, o mogul.Options) (mogul.Retriever, error), mkPoints func() []mogul.Vector, opts mogul.Options, n int) (heapPerPoint, diskPerPoint float64, err error) {
	before := heapBytes()
	pts := mkPoints()
	r, err := mk(pts, opts)
	if err != nil {
		return 0, 0, err
	}
	pts = nil
	_ = pts
	after := heapBytes()
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		return 0, 0, err
	}
	runtime.KeepAlive(r)
	heap := float64(after) - float64(before)
	if heap < 0 {
		heap = 0
	}
	return heap / float64(n), float64(buf.Len()) / float64(n), nil
}

// heapBytes returns HeapAlloc after forcing a full collection, so
// deltas measure retained bytes rather than allocation churn.
func heapBytes() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
