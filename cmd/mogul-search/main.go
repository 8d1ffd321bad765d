// Command mogul-search builds a Mogul index over a dataset file and
// answers top-k Manifold Ranking queries:
//
//	mogul-datagen -dataset coil -o coil.gob
//	mogul-search -data coil.gob -query 17,93 -k 10
//	mogul-search -data coil.gob -query-vec "0.1,0.2,..." -k 10   # out-of-sample
//	mogul-search -data coil.gob -exact -query 17                 # MogulE
//	mogul-search -data coil.gob -save-index coil.mogul           # precompute once
//	mogul-search -load-index coil.mogul -query 17                # query in O(load)
//
// Input is a gob file from mogul-datagen or a CSV file (header row,
// numeric feature columns, optional trailing "label" column), or a
// prebuilt index file via -load-index (see docs/FORMAT.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mogul"
	"mogul/internal/diskio"
)

func main() {
	var (
		data      = flag.String("data", "", "dataset file (.gob from mogul-datagen, or .csv)")
		loadIndex = flag.String("load-index", "", "query a prebuilt index file (from -save-index) instead of building")
		saveIndex = flag.String("save-index", "", "after building, persist the index here")
		queryIDs  = flag.String("query", "", "comma-separated in-database query ids")
		queryVec  = flag.String("query-vec", "", "comma-separated feature vector for an out-of-sample query")
		k         = flag.Int("k", 10, "number of answers")
		graphK    = flag.Int("graph-k", 5, "k of the k-NN graph")
		alpha     = flag.Float64("alpha", 0.99, "Manifold Ranking damping parameter")
		exact     = flag.Bool("exact", false, "use MogulE (exact scores, denser factor)")
		seed      = flag.Int64("seed", 1, "seed for stochastic components")
	)
	flag.Parse()
	if *data == "" && *loadIndex == "" {
		fmt.Fprintln(os.Stderr, "mogul-search: provide -data or -load-index")
		flag.Usage()
		os.Exit(2)
	}
	if *queryIDs == "" && *queryVec == "" && *saveIndex == "" {
		fmt.Fprintln(os.Stderr, "mogul-search: provide -query, -query-vec, or -save-index")
		os.Exit(2)
	}

	// Labels are cosmetic (result annotation); load them when a dataset
	// is at hand, even next to a prebuilt index.
	var ds *mogul.Dataset
	if *data != "" {
		var err error
		ds, err = loadDataset(*data)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "loaded %s: n=%d dim=%d labels=%v\n", ds.Name, ds.Len(), ds.Dim(), ds.Labels != nil)
	}

	// ix is the shared Retriever surface: -load-index may hand back a
	// plain or a sharded index (mogul.Load dispatches on the magic),
	// and every query below works the same on either.
	var ix mogul.Retriever
	if *loadIndex != "" {
		// Build parameters are baked into the index file; warn when the
		// user sets one alongside -load-index so a mode mismatch (e.g.
		// expecting -exact scores from an approximate index) is visible.
		buildOnly := map[string]bool{"graph-k": true, "alpha": true, "exact": true, "seed": true}
		flag.Visit(func(f *flag.Flag) {
			if buildOnly[f.Name] {
				fmt.Fprintf(os.Stderr, "mogul-search: warning: -%s is ignored with -load-index (the index file fixes it)\n", f.Name)
			}
		})
		t0 := time.Now()
		var err error
		ix, err = mogul.LoadFile(*loadIndex)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "index loaded in %v (%d items)\n", time.Since(t0).Round(time.Millisecond), ix.Len())
		if ds != nil && ds.Len() != ix.Len() {
			fmt.Fprintf(os.Stderr, "mogul-search: warning: -data has %d items but the index has %d; ignoring its labels\n", ds.Len(), ix.Len())
			ds = nil
		}
	} else {
		t0 := time.Now()
		idx, err := mogul.BuildFromDataset(ds, mogul.Options{
			GraphK: *graphK,
			Alpha:  *alpha,
			Exact:  *exact,
			Seed:   *seed,
		})
		if err != nil {
			fail(err)
		}
		ix = idx
		st := ix.Stats()
		fmt.Fprintf(os.Stderr, "index built in %v (clusters=%d, border=%d, nnz(L)=%d)\n",
			time.Since(t0).Round(time.Millisecond), st.NumClusters, st.BorderSize, st.FactorNNZ)
	}

	if *saveIndex != "" {
		if err := ix.SaveFile(*saveIndex); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "index saved to %s\n", *saveIndex)
	}

	if *queryIDs != "" {
		for _, tok := range strings.Split(*queryIDs, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				fail(fmt.Errorf("bad query id %q: %w", tok, err))
			}
			t1 := time.Now()
			res, err := ix.TopK(id, *k)
			if err != nil {
				fail(err)
			}
			printResults(fmt.Sprintf("query node %d", id), res, ds, time.Since(t1))
		}
	}
	if *queryVec != "" {
		q, err := parseVector(*queryVec)
		if err != nil {
			fail(err)
		}
		t1 := time.Now()
		res, err := ix.TopKVector(q, *k)
		if err != nil {
			fail(err)
		}
		printResults("out-of-sample query", res, ds, time.Since(t1))
	}
}

func loadDataset(path string) (*mogul.Dataset, error) {
	if strings.HasSuffix(strings.ToLower(path), ".csv") {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return diskio.LoadCSV(f, path)
	}
	return diskio.LoadGob(path)
}

func parseVector(s string) (mogul.Vector, error) {
	fields := strings.Split(s, ",")
	v := make(mogul.Vector, len(fields))
	for i, tok := range fields {
		x, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return nil, fmt.Errorf("bad vector component %q: %w", tok, err)
		}
		v[i] = x
	}
	return v, nil
}

func printResults(header string, res []mogul.Result, ds *mogul.Dataset, took time.Duration) {
	fmt.Printf("%s (%v):\n", header, took.Round(time.Microsecond))
	for rank, r := range res {
		if ds != nil && ds.Labels != nil {
			fmt.Printf("  %2d. node %-8d score %.6g  label %d\n", rank+1, r.Node, r.Score, ds.Labels[r.Node])
		} else {
			fmt.Printf("  %2d. node %-8d score %.6g\n", rank+1, r.Node, r.Score)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mogul-search:", err)
	os.Exit(1)
}
