// Package eval provides the evaluation metrics and reporting helpers
// used by the experiment harness: P@k against a reference ranking,
// retrieval precision against ground-truth labels (Section 5.2.1 of
// the paper), wall-clock measurement, ASCII sparsity ("spy") plots for
// the Figure 6 reproduction, and aligned table output.
package eval

import (
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"
	"time"

	"mogul/internal/cholesky"
	"mogul/internal/core"
	"mogul/internal/topk"
)

// TopKIDs extracts node ids from ranked results.
func TopKIDs(results []core.Result) []int {
	out := make([]int, len(results))
	for i, r := range results {
		out[i] = r.Node
	}
	return out
}

// TopKFromScores returns the ids of the k largest scores, excluding
// the ids in exclude (pass nil for none). Ties break on smaller id.
func TopKFromScores(scores []float64, k int, exclude map[int]bool) []int {
	c := topk.New(k)
	for i, s := range scores {
		if exclude[i] {
			continue
		}
		c.Offer(i, s)
	}
	items := c.Results()
	out := make([]int, len(items))
	for i, it := range items {
		out[i] = it.ID
	}
	return out
}

// PAtK is the paper's P@k: the fraction of the method's top-k answers
// that also appear in the reference (inverse-matrix) top-k. Both
// slices are treated as sets; the shorter length bounds the
// denominator so partial answers are not rewarded.
func PAtK(method, reference []int) float64 {
	if len(reference) == 0 {
		return 0
	}
	ref := make(map[int]bool, len(reference))
	for _, id := range reference {
		ref[id] = true
	}
	hits := 0
	for _, id := range method {
		if ref[id] {
			hits++
		}
	}
	return float64(hits) / float64(len(reference))
}

// RetrievalPrecision is the fraction of answers whose ground-truth
// label matches the query's label ("the ratio of answer nodes that
// correspond to the same objects as the query nodes", Section 5.2.1).
// The query node itself, when present in answers, is skipped — finding
// yourself is not retrieval.
func RetrievalPrecision(answers []int, labels []int, queryLabel, queryID int) float64 {
	count, hits := 0, 0
	for _, id := range answers {
		if id == queryID {
			continue
		}
		count++
		if labels[id] == queryLabel {
			hits++
		}
	}
	if count == 0 {
		return 0
	}
	return float64(hits) / float64(count)
}

// Seconds formats a duration the way the paper's log-scale plots read:
// scientific notation in seconds.
func Seconds(d time.Duration) string {
	return fmt.Sprintf("%.3e", d.Seconds())
}

// SpyFactor renders an ASCII density plot of the strictly-lower factor
// L (the Figure 6 reproduction): the n x n index square is bucketed
// into size x size character cells shaded by non-zero density.
func SpyFactor(f *cholesky.Factor, size int) string {
	if size <= 0 {
		size = 48
	}
	grid := make([][]int, size)
	for i := range grid {
		grid[i] = make([]int, size)
	}
	n := f.N
	if n == 0 {
		return ""
	}
	scale := float64(size) / float64(n)
	for j := 0; j < n; j++ {
		rows, _ := f.Col(j)
		cj := int(float64(j) * scale)
		for _, r := range rows {
			grid[int(float64(r)*scale)][cj]++
		}
		// Unit diagonal.
		grid[cj][cj]++
	}
	return renderGrid(grid)
}

// renderGrid shades cell counts with a short density ramp.
func renderGrid(grid [][]int) string {
	maxCount := 0
	for _, row := range grid {
		for _, c := range row {
			if c > maxCount {
				maxCount = c
			}
		}
	}
	ramp := []byte(" .:+#@")
	var b strings.Builder
	for _, row := range grid {
		for _, c := range row {
			if c == 0 {
				b.WriteByte(' ')
				continue
			}
			// Log shading: sparse cells stay visible next to dense
			// diagonal blocks.
			lvl := 1 + int(float64(len(ramp)-2)*math.Log1p(float64(c))/math.Log1p(float64(maxCount)))
			if lvl > len(ramp)-1 {
				lvl = len(ramp) - 1
			}
			b.WriteByte(ramp[lvl])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSVTable writes rows as RFC-4180-ish CSV (quoting cells containing
// commas or quotes); the first row is the header. The benchmark
// harness offers this as machine-readable output for replotting.
func CSVTable(w io.Writer, rows [][]string) {
	for _, row := range rows {
		for j, cell := range row {
			if j > 0 {
				fmt.Fprint(w, ",")
			}
			if strings.ContainsAny(cell, ",\"\n") {
				fmt.Fprintf(w, "\"%s\"", strings.ReplaceAll(cell, `"`, `""`))
			} else {
				fmt.Fprint(w, cell)
			}
		}
		fmt.Fprintln(w)
	}
}

// Table writes aligned rows; the first row is treated as the header.
func Table(w io.Writer, rows [][]string) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for i, row := range rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
		if i == 0 {
			sep := make([]string, len(row))
			for j, cell := range row {
				sep[j] = strings.Repeat("-", len(cell))
			}
			fmt.Fprintln(tw, strings.Join(sep, "\t"))
		}
	}
	tw.Flush()
}
