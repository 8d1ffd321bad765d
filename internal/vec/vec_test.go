package vec

import (
	"math"
	"testing"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVectorOps(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	c := v.Clone()
	c.Add(w)
	if c[0] != 5 || c[1] != 7 || c[2] != 9 {
		t.Fatalf("Add: got %v", c)
	}
	c.Scale(2)
	if c[0] != 10 || c[1] != 14 || c[2] != 18 {
		t.Fatalf("Scale: got %v", c)
	}
	if got := v.Dot(w); got != 32 {
		t.Fatalf("Dot = %g, want 32", got)
	}
}

func TestDimensionMismatchesPanic(t *testing.T) {
	for name, f := range map[string]func(){
		"Add":       func() { Vector{1}.Add(Vector{1, 2}) },
		"Dot":       func() { Vector{1}.Dot(Vector{1, 2}) },
		"Euclidean": func() { SquaredEuclidean(Vector{1}, Vector{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic on dimension mismatch", name)
				}
			}()
			f()
		}()
	}
}

func TestDatasetValidate(t *testing.T) {
	good := &Dataset{Points: []Vector{{1, 2}, {3, 4}}, Labels: []int{0, 1}, Name: "t"}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid dataset rejected: %v", err)
	}
	cases := map[string]*Dataset{
		"empty":        {Name: "e"},
		"ragged":       {Points: []Vector{{1, 2}, {3}}},
		"zero-dim":     {Points: []Vector{{}}},
		"nan":          {Points: []Vector{{math.NaN(), 0}}},
		"inf":          {Points: []Vector{{math.Inf(1), 0}}},
		"label-length": {Points: []Vector{{1}}, Labels: []int{0, 1}},
	}
	for name, ds := range cases {
		if err := ds.Validate(); err == nil {
			t.Fatalf("%s: invalid dataset accepted", name)
		}
	}
	if good.Len() != 2 || good.Dim() != 2 {
		t.Fatalf("Len/Dim wrong: %d/%d", good.Len(), good.Dim())
	}
	empty := &Dataset{}
	if empty.Dim() != 0 {
		t.Fatal("empty dataset Dim != 0")
	}
}

func TestStddev(t *testing.T) {
	if got := Stddev(nil); got != 0 {
		t.Fatalf("Stddev(nil) = %g", got)
	}
	if got := Stddev([]float64{5}); got != 0 {
		t.Fatalf("Stddev(single) = %g", got)
	}
	if got := Stddev([]float64{2, 2, 2}); got != 0 {
		t.Fatalf("Stddev(constant) = %g", got)
	}
	// Population stddev of {1, 3} is 1.
	if got := Stddev([]float64{1, 3}); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("Stddev({1,3}) = %g, want 1", got)
	}
}
