package eval

import (
	"math"
	"strings"
	"testing"
	"time"

	"mogul/internal/cholesky"
	"mogul/internal/core"
	"mogul/internal/sparse"
)

func TestPAtK(t *testing.T) {
	if got := PAtK([]int{1, 2, 3}, []int{1, 2, 3}); got != 1 {
		t.Fatalf("identical sets P@k = %g", got)
	}
	if got := PAtK([]int{1, 2, 3}, []int{4, 5, 6}); got != 0 {
		t.Fatalf("disjoint sets P@k = %g", got)
	}
	if got := PAtK([]int{1, 9, 3}, []int{1, 2, 3}); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("partial overlap P@k = %g", got)
	}
	if got := PAtK([]int{1}, nil); got != 0 {
		t.Fatalf("empty reference P@k = %g", got)
	}
	// Short method answer against a longer reference is penalized.
	if got := PAtK([]int{1}, []int{1, 2}); got != 0.5 {
		t.Fatalf("short answer P@k = %g", got)
	}
}

func TestRetrievalPrecision(t *testing.T) {
	labels := []int{0, 0, 1, 1, 0}
	// Query id 0 (label 0); answers 0 (self, skipped), 1 (hit), 2 (miss).
	got := RetrievalPrecision([]int{0, 1, 2}, labels, 0, 0)
	if got != 0.5 {
		t.Fatalf("precision = %g, want 0.5", got)
	}
	if got := RetrievalPrecision([]int{0}, labels, 0, 0); got != 0 {
		t.Fatalf("self-only answers precision = %g", got)
	}
	if got := RetrievalPrecision(nil, labels, 0, 0); got != 0 {
		t.Fatalf("empty answers precision = %g", got)
	}
}

func TestTopKFromScores(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5, 0.7}
	ids := TopKFromScores(scores, 2, nil)
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("TopKFromScores = %v", ids)
	}
	ids = TopKFromScores(scores, 2, map[int]bool{1: true})
	if ids[0] != 3 || ids[1] != 2 {
		t.Fatalf("excluded TopKFromScores = %v", ids)
	}
}

func TestTopKIDs(t *testing.T) {
	res := []core.Result{{Node: 5, Score: 1}, {Node: 2, Score: 0.5}}
	ids := TopKIDs(res)
	if ids[0] != 5 || ids[1] != 2 {
		t.Fatalf("TopKIDs = %v", ids)
	}
}

func TestTimeAndSeconds(t *testing.T) {
	if s := Seconds(1500 * time.Millisecond); s != "1.500e+00" {
		t.Fatalf("Seconds = %q", s)
	}
}

func TestSpyFactor(t *testing.T) {
	// Small SPD tridiagonal factor: diagonal band must appear.
	entries := []sparse.Coord{}
	n := 12
	for i := 0; i < n; i++ {
		entries = append(entries, sparse.Coord{Row: i, Col: i, Val: 4})
		if i > 0 {
			entries = append(entries, sparse.Coord{Row: i, Col: i - 1, Val: -1})
			entries = append(entries, sparse.Coord{Row: i - 1, Col: i, Val: -1})
		}
	}
	w, err := sparse.NewFromCoords(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	f, err := cholesky.CompleteLDL(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	plot := SpyFactor(f, 6)
	lines := strings.Split(strings.TrimRight(plot, "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("spy has %d lines", len(lines))
	}
	for i := 0; i < 6; i++ {
		if lines[i][i] == ' ' {
			t.Fatalf("diagonal cell %d empty", i)
		}
	}
	// Upper triangle of L stays empty.
	if lines[0][5] != ' ' {
		t.Fatal("upper triangle rendered")
	}
}

func TestCSVTable(t *testing.T) {
	var b strings.Builder
	CSVTable(&b, [][]string{
		{"name", "value"},
		{"plain", "1"},
		{"with,comma", `has "quotes"`},
	})
	out := b.String()
	want := "name,value\nplain,1\n\"with,comma\",\"has \"\"quotes\"\"\"\n"
	if out != want {
		t.Fatalf("CSV output:\n%q\nwant\n%q", out, want)
	}
}

func TestTable(t *testing.T) {
	var b strings.Builder
	Table(&b, [][]string{
		{"name", "value"},
		{"alpha", "0.99"},
	})
	out := b.String()
	if !strings.Contains(out, "name") || !strings.Contains(out, "0.99") {
		t.Fatalf("table output missing content:\n%s", out)
	}
	if !strings.Contains(out, "----") {
		t.Fatal("missing header separator")
	}
}
