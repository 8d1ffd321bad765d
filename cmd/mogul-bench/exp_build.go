package main

import (
	"fmt"
	"runtime"
	"time"

	"mogul"
	"mogul/internal/eval"
)

// expBuild reports the build-stage wall-time breakdown of three engines
// at 1 worker and at all cores — the scaling check behind the parallel
// precompute pipeline (docs/PERFORMANCE.md). Stages:
//
//	exact engine:    knn (graph build), cluster (Louvain + permute),
//	                 factor (LDL^T + bound tables)
//	anchor engine:   anchors (k-means), attach (anchor attachment + H),
//	                 gram (G assembly + SPD inversion)
//	spectral engine: knn (graph build + normalization), factor (the
//	                 rank-64 Lanczos decomposition, spectral.Decompose)
//
// The parallel stages are knn, anchors, attach, and the gram stage;
// Louvain and the sparse factorization are serial, so their share of
// the total bounds the achievable end-to-end speedup (Amdahl).
func expBuild(l *lab) {
	n := l.scale.nus
	ds := mogul.NewMixture(mogul.MixtureConfig{
		N: n, Classes: n / 10, Dim: 8, WithinStd: 0.25, Separation: 3.0, Seed: l.seed,
	})

	allCores := runtime.GOMAXPROCS(0)
	procSweep := []int{1, allCores}
	if allCores == 1 {
		procSweep = procSweep[:1]
	}

	rows := [][]string{{"engine", "procs", "total [s]", "knn/anchors [s]", "cluster/attach [s]", "factor/gram [s]"}}
	for _, procs := range procSweep {
		prev := runtime.GOMAXPROCS(procs)

		t0 := time.Now()
		ix, err := mogul.Build(ds.Points, mogul.Options{Exact: true, Seed: l.seed})
		if err != nil {
			runtime.GOMAXPROCS(prev)
			fatal(err)
		}
		total := time.Since(t0)
		st := ix.Stats()
		graph := total - st.PrecomputeTime()
		rows = append(rows, []string{
			"MogulE", fmt.Sprintf("%d", procs),
			eval.Seconds(total), eval.Seconds(graph),
			eval.Seconds(st.ClusterTime + st.PermuteTime), eval.Seconds(st.FactorTime),
		})

		t1 := time.Now()
		engine, err := mogul.BuildEMR(ds.Points, mogul.Options{Seed: l.seed}, mogul.EMROptions{
			NumAnchors: 2560, NumNearestAnchors: 24,
		})
		if err != nil {
			runtime.GOMAXPROCS(prev)
			fatal(err)
		}
		etotal := time.Since(t1)
		est := engine.Stats()
		attach := etotal - est.ClusterTime - est.FactorTime
		rows = append(rows, []string{
			"EMR", fmt.Sprintf("%d", procs),
			eval.Seconds(etotal), eval.Seconds(est.ClusterTime),
			eval.Seconds(attach), eval.Seconds(est.FactorTime),
		})

		t2 := time.Now()
		spec, err := mogul.BuildSpectral(ds.Points, mogul.Options{Seed: l.seed}, mogul.SpectralOptions{})
		if err != nil {
			runtime.GOMAXPROCS(prev)
			fatal(err)
		}
		stotal := time.Since(t2)
		sst := spec.Stats()
		rows = append(rows, []string{
			"Spectral", fmt.Sprintf("%d", procs),
			eval.Seconds(stotal), eval.Seconds(sst.ClusterTime),
			"-", eval.Seconds(sst.FactorTime),
		})

		runtime.GOMAXPROCS(prev)
	}
	fmt.Printf("Build-stage breakdown on %s (n=%d, EMR p=2560 s=24, spectral r=64; knn/anchors+attach+gram parallel, Louvain+LDL^T serial, Lanczos parallel with a serial Rayleigh-Ritz)\n", ds.Name, n)
	emitTable(rows)
}
