package main

import (
	"testing"
	"time"
)

func TestScalePresets(t *testing.T) {
	for name, p := range scalePresets {
		if p.coil <= 0 || p.pubfig <= 0 || p.nus <= 0 || p.inria <= 0 {
			t.Fatalf("preset %q has non-positive sizes: %+v", name, p)
		}
	}
	// Sizes ascend with scale per dataset (the paper's "graph sizes
	// increase in the order ..." ordering is preserved within a scale).
	small, medium := scalePresets["small"], scalePresets["medium"]
	if small.inria >= medium.inria || small.coil > medium.coil {
		t.Fatal("small preset not smaller than medium")
	}
	for name, p := range scalePresets {
		if !(p.coil <= p.pubfig && p.pubfig <= p.nus && p.nus <= p.inria) {
			t.Fatalf("preset %q violates dataset size ordering: %+v", name, p)
		}
	}
}

func TestNewLabValidation(t *testing.T) {
	if _, err := newLab("galactic", 1, 1, 1, 1); err == nil {
		t.Fatal("unknown scale accepted")
	}
	l, err := newLab("small", 1, 5, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if l.queries != 5 || l.inverseMaxN != 100 {
		t.Fatalf("lab misconfigured: %+v", l)
	}
}

func TestQueryNodesDeterministicAndInRange(t *testing.T) {
	l, err := newLab("small", 1, 20, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Fake a cached graph-free path: use dataset directly via graph();
	// COIL small is fast enough for a unit test.
	a := l.queryNodes("COIL-100")
	b := l.queryNodes("COIL-100")
	if len(a) != 20 {
		t.Fatalf("got %d query nodes", len(a))
	}
	n := l.graph("COIL-100").Len()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("query nodes not deterministic")
		}
		if a[i] < 0 || a[i] >= n {
			t.Fatalf("query node %d out of range", a[i])
		}
	}
}

func TestMedianDuration(t *testing.T) {
	if medianDuration(nil) != 0 {
		t.Fatal("empty median not 0")
	}
	ds := []time.Duration{5, 1, 3}
	if medianDuration(ds) != 3 {
		t.Fatalf("median = %v", medianDuration(ds))
	}
	// Input must not be reordered.
	if ds[0] != 5 || ds[2] != 3 {
		t.Fatal("medianDuration mutated its input")
	}
}

func TestMedianSearchTime(t *testing.T) {
	calls := 0
	d := medianSearchTime([]int{1, 2, 3}, func(q int) {
		calls++
		time.Sleep(time.Millisecond)
	})
	if calls != 3 {
		t.Fatalf("fn called %d times", calls)
	}
	if d < time.Millisecond {
		t.Fatalf("median %v below sleep time", d)
	}
}

func TestAnchorSweepClamps(t *testing.T) {
	sweep := anchorSweep(120)
	for _, d := range sweep {
		if d > 120 {
			t.Fatalf("anchor count %d exceeds n", d)
		}
	}
	if len(sweep) != 4 { // 10, 25, 50, 100
		t.Fatalf("sweep = %v", sweep)
	}
}

func TestFMRBlocksFor(t *testing.T) {
	if got := fmrBlocksFor(100); got != 8 {
		t.Fatalf("small n blocks = %d", got)
	}
	if got := fmrBlocksFor(30000); got != 100 {
		t.Fatalf("large n blocks = %d", got)
	}
}
