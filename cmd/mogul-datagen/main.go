// Command mogul-datagen emits the synthetic datasets the reproduction
// evaluates on, in gob (for mogul-search) or CSV form:
//
//	mogul-datagen -dataset coil -o coil.gob
//	mogul-datagen -dataset pubfig -n 5000 -format csv -o pubfig.csv
//
// Datasets: coil (pose manifolds), pubfig (73-D attributes), nus
// (150-D color moments), inria (128-D SIFT-like), mixture (generic).
package main

import (
	"flag"
	"fmt"
	"os"

	"mogul/internal/dataset"
	"mogul/internal/diskio"
	"mogul/internal/vec"
)

func main() {
	var (
		name    = flag.String("dataset", "coil", "dataset: coil, pubfig, nus, inria, mixture")
		n       = flag.Int("n", 0, "number of points (0 = dataset default; for coil this is rounded to whole objects)")
		classes = flag.Int("classes", 10, "classes for -dataset mixture")
		dim     = flag.Int("dim", 32, "dimensionality for -dataset mixture")
		seed    = flag.Int64("seed", 1, "random seed")
		format  = flag.String("format", "gob", "output format: gob or csv")
		out     = flag.String("o", "", "output path (required; '-' writes CSV to stdout)")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "mogul-datagen: -o is required")
		flag.Usage()
		os.Exit(2)
	}

	var ds *vec.Dataset
	switch *name {
	case "coil":
		objects := 100
		if *n > 0 {
			objects = *n / 72
			if objects < 1 {
				objects = 1
			}
		}
		ds = dataset.COILSim(dataset.COILConfig{Objects: objects, Seed: *seed})
	case "pubfig":
		size := *n
		if size <= 0 {
			size = 12000
		}
		ds = dataset.PubFigSim(size, *seed)
	case "nus":
		size := *n
		if size <= 0 {
			size = 24000
		}
		ds = dataset.NUSWideSim(size, *seed)
	case "inria":
		size := *n
		if size <= 0 {
			size = 48000
		}
		ds = dataset.INRIASim(size, *seed)
	case "mixture":
		size := *n
		if size <= 0 {
			size = 1000
		}
		ds = dataset.Mixture(dataset.MixtureConfig{
			N: size, Classes: *classes, Dim: *dim, Seed: *seed,
			Separation: 2, WithinStd: 0.25, Name: "mixture",
		})
	default:
		fmt.Fprintf(os.Stderr, "mogul-datagen: unknown dataset %q\n", *name)
		os.Exit(2)
	}

	switch *format {
	case "gob":
		if *out == "-" {
			fmt.Fprintln(os.Stderr, "mogul-datagen: gob output needs a file path")
			os.Exit(2)
		}
		if err := diskio.SaveGob(*out, ds); err != nil {
			fmt.Fprintln(os.Stderr, "mogul-datagen:", err)
			os.Exit(1)
		}
	case "csv":
		w := os.Stdout
		if *out != "-" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mogul-datagen:", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		if err := diskio.SaveCSV(w, ds); err != nil {
			fmt.Fprintln(os.Stderr, "mogul-datagen:", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "mogul-datagen: unknown format %q\n", *format)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "mogul-datagen: wrote %s (n=%d, dim=%d) to %s\n", ds.Name, ds.Len(), ds.Dim(), *out)
}
