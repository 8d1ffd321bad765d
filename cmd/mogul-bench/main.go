// Command mogul-bench regenerates every figure and table of the
// paper's evaluation (Section 5) on the synthetic dataset stand-ins:
//
//	mogul-bench -exp all                 # everything, small scale
//	mogul-bench -exp fig1 -scale medium  # one experiment, bigger data
//
// Experiments: fig1 (search time), fig234 (accuracy/time vs anchors),
// fig5 (pruning ablation), fig6 (sparsity spy plots), fig7
// (out-of-sample time), table2 (out-of-sample breakdown), fig8
// (precompute time), fig9 (case studies), nnz (factor sizes).
//
// Scales: small (seconds), medium (minutes), large (tens of minutes).
// EXPERIMENTS.md records paper-reported versus measured results.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment: all,fig1,fig234,fig5,fig6,fig7,table2,fig8,fig9,nnz,ordering,sharded,... (comma separated)")
		scale       = flag.String("scale", "small", "dataset scale: small, medium, large")
		seed        = flag.Int64("seed", 1, "random seed for datasets and stochastic components")
		queries     = flag.Int("queries", 10, "query repetitions per timing measurement")
		inverseMaxN = flag.Int("inverse-max-n", 2000, "skip the O(n^3) Inverse baseline above this many nodes")
		fmrMaxN     = flag.Int("fmr-max-n", 30000, "skip the FMR baseline above this many nodes")
		format      = flag.String("format", "table", "result format: table (aligned text) or csv")
		shards      = flag.Int("shards", 8, "largest shard count of the sharded experiment's S sweep (1,2,4,... up to N)")
	)
	flag.Parse()
	switch *format {
	case "table":
	case "csv":
		csvOutput = true
	default:
		fmt.Fprintf(os.Stderr, "unknown format %q (want table or csv)\n", *format)
		os.Exit(2)
	}

	l, err := newLab(*scale, *seed, *queries, *inverseMaxN, *fmrMaxN)
	if err != nil {
		fatal(err)
	}
	l.maxShards = *shards

	runners := map[string]func(*lab){
		"fig1":     expFig1,
		"fig234":   expFig234,
		"fig5":     expFig5,
		"fig6":     expFig6,
		"fig7":     expFig7,
		"table2":   expTable2,
		"fig8":     expFig8,
		"fig9":     expFig9,
		"nnz":      expNNZ,
		"ordering": expOrdering,
		"scaling":  expScaling,
		"quality":  expQuality,
		"mogulcg":  expMogulCG,
		"split":    expSplit,
		"serving":  expServing,
		"sharded":  expSharded,
		"dist":     expDist,
		"emr":      expEMR,
		"spectral": expSpectral,
		"build":    expBuild,
		"memory":   expMemory,
	}
	order := []string{"fig1", "fig234", "fig5", "fig6", "fig7", "table2", "fig8", "fig9", "nnz", "ordering", "scaling", "quality", "mogulcg", "split", "serving", "sharded", "dist", "emr", "spectral", "build", "memory"}

	var selected []string
	if *exp == "all" {
		selected = order
	} else {
		for _, name := range strings.Split(*exp, ",") {
			name = strings.TrimSpace(name)
			if _, ok := runners[name]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; available: all,%s\n", name, strings.Join(order, ","))
				os.Exit(2)
			}
			selected = append(selected, name)
		}
	}

	fmt.Printf("mogul-bench: scale=%s seed=%d queries=%d\n\n", *scale, *seed, *queries)
	for i, name := range selected {
		if i > 0 {
			fmt.Println()
		}
		t0 := time.Now()
		runners[name](l)
		fmt.Fprintf(os.Stderr, "[lab] %s finished in %v\n", name, time.Since(t0).Round(time.Millisecond))
	}
}
