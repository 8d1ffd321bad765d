package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewPermutationValidation(t *testing.T) {
	if _, err := NewPermutation([]int{0, 2, 1}); err != nil {
		t.Fatalf("valid permutation rejected: %v", err)
	}
	if _, err := NewPermutation([]int{0, 0, 1}); err == nil {
		t.Fatal("repeated entry accepted")
	}
	if _, err := NewPermutation([]int{0, 3, 1}); err == nil {
		t.Fatal("out-of-range entry accepted")
	}
	if _, err := NewPermutation([]int{-1, 0}); err == nil {
		t.Fatal("negative entry accepted")
	}
}

func TestApplyInverseRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		p, err := NewPermutation(rng.Perm(n))
		if err != nil {
			return false
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := p.ApplyInverse(p.Apply(x))
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		// Apply places element NewToOld[i] at position i.
		ax := p.Apply(x)
		for pos, old := range p.NewToOld {
			if ax[pos] != x[old] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPermuteSym(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		entries := randomCoords(rng, n, n, rng.Intn(25))
		a, err := NewFromCoords(n, n, entries)
		if err != nil {
			return false
		}
		p, err := NewPermutation(rng.Perm(n))
		if err != nil {
			return false
		}
		ap, err := p.PermuteSym(a)
		if err != nil {
			return false
		}
		// A'[i][j] == A[NewToOld[i]][NewToOld[j]].
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(ap.At(i, j)-a.At(p.NewToOld[i], p.NewToOld[j])) > 1e-15 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPermuteSymErrors(t *testing.T) {
	rect, _ := NewFromCoords(2, 3, nil)
	p := IdentityPermutation(2)
	if _, err := p.PermuteSym(rect); err == nil {
		t.Fatal("rectangular matrix accepted")
	}
	sq := Identity(3)
	if _, err := p.PermuteSym(sq); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestIdentityPermutation(t *testing.T) {
	p := IdentityPermutation(4)
	x := []float64{1, 2, 3, 4}
	y := p.Apply(x)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("identity Apply changed input: %v", y)
		}
	}
	if p.Len() != 4 {
		t.Fatalf("Len = %d", p.Len())
	}
}
