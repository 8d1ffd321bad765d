// Command mogul-bench regenerates every figure and table of the
// paper's evaluation (Section 5) on the synthetic dataset stand-ins:
//
//	mogul-bench -exp all                 # everything, small scale
//	mogul-bench -exp fig1 -scale medium  # one experiment, bigger data
//
// Experiments: the order table below is the one list; -h and the
// unknown-experiment error print it, and each exp* function's comment
// says what it measures.
//
// Scales: small (seconds), medium (minutes), large (tens of minutes).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

// order lists every experiment in the order -exp all runs them.
var order = []struct {
	name string
	run  func(*lab)
}{
	{"fig1", expFig1},
	{"fig234", expFig234},
	{"fig5", expFig5},
	{"fig6", expFig6},
	{"fig7", expFig7},
	{"table2", expTable2},
	{"fig8", expFig8},
	{"fig9", expFig9},
	{"nnz", expNNZ},
	{"ordering", expOrdering},
	{"mogulcg", expMogulCG},
	{"split", expSplit},
	{"sharded", expSharded},
	{"emr", expEMR},
	{"spectral", expSpectral},
	{"build", expBuild},
	{"memory", expMemory},
}

func main() {
	everything := make([]string, len(order))
	runners := make(map[string]func(*lab), len(order))
	for i, e := range order {
		everything[i] = e.name
		runners[e.name] = e.run
	}
	available := "all," + strings.Join(everything, ",")
	var (
		exp         = flag.String("exp", "all", "experiments, comma separated: "+available)
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

	selected := everything
	if *exp != "all" {
		selected = strings.Split(*exp, ",")
		for i, name := range selected {
			selected[i] = strings.TrimSpace(name)
			if _, ok := runners[selected[i]]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; available: %s\n", selected[i], available)
				os.Exit(2)
			}
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
