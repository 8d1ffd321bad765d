package eval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAveragePrecision(t *testing.T) {
	rel := map[int]bool{1: true, 3: true}
	// Ranked: relevant at positions 1 and 2 -> AP = (1/1 + 2/2)/2 = 1.
	if got := AveragePrecision([]int{1, 3}, rel, 2); got != 1 {
		t.Fatalf("perfect AP = %g", got)
	}
	// Relevant at positions 2 and 4 -> (1/2 + 2/4)/2 = 0.5.
	if got := AveragePrecision([]int{0, 1, 2, 3}, rel, 2); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("AP = %g, want 0.5", got)
	}
	if got := AveragePrecision([]int{0, 2}, rel, 2); got != 0 {
		t.Fatalf("no hits AP = %g", got)
	}
	if got := AveragePrecision(nil, rel, 2); got != 0 {
		t.Fatalf("empty ranked AP = %g", got)
	}
	if got := AveragePrecision([]int{1}, rel, 0); got != 0 {
		t.Fatalf("zero relevant AP = %g", got)
	}
	// Short list normalizes by list length, not total relevant.
	if got := AveragePrecision([]int{1}, rel, 2); got != 1 {
		t.Fatalf("short-list AP = %g, want 1", got)
	}
}

func TestNDCG(t *testing.T) {
	gain := map[int]float64{1: 3, 2: 2, 3: 1}
	// Ideal order.
	if got := NDCG([]int{1, 2, 3}, gain); math.Abs(got-1) > 1e-12 {
		t.Fatalf("ideal NDCG = %g", got)
	}
	// Worst order is below 1 but above 0.
	got := NDCG([]int{3, 2, 1}, gain)
	if got <= 0 || got >= 1 {
		t.Fatalf("reversed NDCG = %g", got)
	}
	if got := NDCG([]int{9, 8}, gain); got != 0 {
		t.Fatalf("irrelevant NDCG = %g", got)
	}
	if got := NDCG([]int{1}, map[int]float64{}); got != 0 {
		t.Fatalf("empty gains NDCG = %g", got)
	}
}

func TestRankCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if got := RankCorrelation(a, a); math.Abs(got-1) > 1e-12 {
		t.Fatalf("self correlation = %g", got)
	}
	b := []float64{5, 4, 3, 2, 1}
	if got := RankCorrelation(a, b); math.Abs(got+1) > 1e-12 {
		t.Fatalf("reversed correlation = %g", got)
	}
	if got := RankCorrelation(a, []float64{1, 1, 1, 1, 1}); got != 0 {
		t.Fatalf("constant correlation = %g", got)
	}
	if got := RankCorrelation([]float64{1}, []float64{2}); got != 0 {
		t.Fatalf("single-element correlation = %g", got)
	}
	if got := RankCorrelation(a, a[:3]); got != 0 {
		t.Fatalf("length mismatch correlation = %g", got)
	}
	// Property: rho is within [-1, 1] and invariant under monotone
	// transformation of one argument.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		rho := RankCorrelation(x, y)
		if rho < -1-1e-9 || rho > 1+1e-9 {
			return false
		}
		// exp is strictly monotone: ranks unchanged.
		ex := make([]float64, n)
		for i := range x {
			ex[i] = math.Exp(x[i])
		}
		return math.Abs(RankCorrelation(ex, y)-rho) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRanksTies(t *testing.T) {
	r := ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", r, want)
		}
	}
}
