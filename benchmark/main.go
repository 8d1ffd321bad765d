// Command benchmark is the repository's serving benchmark: it builds
// each engine from a pinned corpus, hosts the real serve / dist
// handlers on loopback listeners in its own process, drives them over
// TCP with a closed-loop generator, checks every answer, and prints
// the metrics BENCHMARK.json names. README.md in this directory is
// the glossary.
//
//	bash benchmark/run.sh --workload graph_id --seed 1 --seconds 12 --trace 0
//	cd benchmark && go run . -workload all -seed 1    # every metric, both modes
//	cd benchmark && go run . -repeat 10 -check        # A/A spread against the bounds
//	cd benchmark && go run . -list
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runTimeout keeps a wedged run inside the driver's 180 s limit.
const runTimeout = 170 * time.Second

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "traffic seed (the engines never see it)")
	seconds := flag.Float64("seconds", 12, "seconds of measured traffic per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, undecorated; 1: per-layer metrics, decorated")
	out := flag.String("out", "out", "directory for results.json, traces and index files")
	list := flag.Bool("list", false, "print workload and metric names")
	repeat := flag.Int("repeat", 0, "run N end-to-end sets on seeds seed..seed+N-1 and report the spread")
	check := flag.Bool("check", false, "with -repeat: exit non-zero when a spread exceeds its bound")
	regen := flag.Bool("regen-oracle", false, "rebuild the committed exact top-10 goldens")
	flag.Parse()

	if *list {
		printList()
		return 0
	}
	specs := workloads()
	if *workload != "all" {
		sp := findWorkload(*workload)
		if sp == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q (try -list)\n", *workload)
			return 2
		}
		specs = []*spec{sp}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	switch {
	case *regen:
		for _, sp := range specs {
			if err := sp.regenOracle(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			fmt.Println("wrote", goldenPath(sp.name))
		}
		return 0
	case *repeat > 0:
		return runRepeat(specs, *seed, *seconds, *out, *repeat, *check)
	case *workload == "all":
		return runAll(specs, *seed, *seconds, *out)
	}

	res, err := runOne(specs[0], *seed, *seconds, *trace, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	printResult(specs[0].name, *trace, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func runOne(sp *spec, seed int64, seconds float64, trace int, out string) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	if trace == 1 {
		return runPerLayer(ctx, sp, seed, seconds, out)
	}
	return runEndToEnd(ctx, sp, seed, seconds, out)
}

func printList() {
	fmt.Println("workloads:")
	for _, sp := range workloads() {
		fmt.Printf("  %-16s %s\n", sp.name, sp.why)
	}
	fmt.Println("end-to-end metrics (--trace 0):")
	for _, d := range endToEnd {
		fmt.Printf("  %-30s %-6s better %-6s bound %g\n", d.Name, d.Unit, d.Better, d.Bound)
	}
	fmt.Println("per-layer metrics (--trace 1):")
	for _, d := range perLayer {
		fmt.Printf("  %-30s %-6s better %s\n", d.Name, d.Unit, d.Better)
	}
}

// printResult prints the phase counts and every metric by name.
func printResult(name string, trace int, res *result) {
	fmt.Printf("== %s (trace %d)\n", name, trace)
	for _, p := range res.phases {
		fmt.Println(p)
	}
	if res.oracleS > 0 {
		fmt.Printf("oracle_s %.3f s (no committed golden for this corpus; not part of setup_s)\n", res.oracleS)
	}
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Printf("  %-30s %14.4f %s\n", d.Name, m.Value, m.Unit)
	}
}

// runAll is the one command that prints everything: each workload in
// both modes, with results.json beside the traces.
func runAll(specs []*spec, seed int64, seconds float64, out string) int {
	type entry struct {
		EndToEnd map[string]metric `json:"end_to_end"`
		PerLayer map[string]metric `json:"per_layer"`
		OracleS  float64           `json:"oracle_s"`
		Phases   []string          `json:"phases"`
	}
	all := map[string]entry{}
	code := 0
	for _, sp := range specs {
		var e entry
		for trace := 0; trace <= 1; trace++ {
			res, err := runOne(sp, seed, seconds, trace, out)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			printResult(sp.name, trace, res)
			if !res.Correct {
				fmt.Printf("INCORRECT: %d of %d operations failed\n", res.Failed, res.Attempted)
				code = 1
			}
			e.Phases = append(e.Phases, res.phases...)
			if trace == 0 {
				e.EndToEnd, e.OracleS = res.Metrics, res.oracleS
			} else {
				e.PerLayer = res.Metrics
			}
		}
		all[sp.name] = e
	}
	data, err := json.MarshalIndent(all, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(out, "results.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return code
}

// runRepeat is the A/A self-check: sets of end-to-end runs interleaved
// over the workloads, each set on another seed, as the driver runs
// them. Per metric it prints the median, the quartiles, their distance
// over the median (what the driver holds against the bound) and the
// full range over the median.
func runRepeat(specs []*spec, seed int64, seconds float64, out string, sets int, check bool) int {
	values := map[string]map[string][]float64{}
	for s := 0; s < sets; s++ {
		for _, sp := range specs {
			res, err := runOne(sp, seed+int64(s), seconds, 0, out)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "%s seed %d: %d of %d operations failed\n", sp.name, seed+int64(s), res.Failed, res.Attempted)
				return 1
			}
			if values[sp.name] == nil {
				values[sp.name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[sp.name][name] = append(values[sp.name][name], m.Value)
			}
			fmt.Fprintf(os.Stderr, "set %d/%d %s done\n", s+1, sets, sp.name)
		}
	}
	exceeded := 0
	fmt.Printf("%-16s %-14s %12s %12s %12s %8s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound")
	for _, sp := range specs {
		for _, d := range endToEnd {
			xs := append([]float64(nil), values[sp.name][d.Name]...)
			sort.Float64s(xs)
			q1, q2, q3 := quartiles(xs)
			iqr, rng := ratio(q3-q1, q2), ratio(xs[len(xs)-1]-xs[0], q2)
			flag := ""
			// setup_s is held to its bound between medians of sets, not
			// within one, as in the driver.
			if iqr > d.Bound && d.Name != "setup_s" {
				flag = "  EXCEEDS"
				exceeded++
			}
			fmt.Printf("%-16s %-14s %12.4f %12.4f %12.4f %8.4f %8.4f %6.3f%s\n", sp.name, d.Name, q2, q1, q3, iqr, rng, d.Bound, flag)
		}
	}
	if check && exceeded > 0 {
		fmt.Printf("%d metric x workload spreads exceed their bound\n", exceeded)
		return 1
	}
	return 0
}

// quartiles cuts a sorted sample as Python's statistics.quantiles(xs,
// n=4) does (exclusive method), which is what the driver uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) < 2 {
		return xs[0], xs[0], xs[0]
	}
	cut := func(i int) float64 {
		m := len(xs) + 1
		j := min(max(i*m/4, 1), len(xs)-1)
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
