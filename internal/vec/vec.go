// Package vec provides dense feature vectors, distance metrics, and the
// small vector kernels shared by every other package in the repository.
//
// Manifold Ranking operates on image feature vectors (RGB pixels,
// attribute scores, color moments, SIFT descriptors in the paper); this
// package is the common substrate that holds those vectors and measures
// distances between them. Vectors are plain float64; the stored rows an
// engine keeps (Rows) are float64 or float32, and their record codec is
// built on internal/binio.
package vec

import (
	"fmt"
	"math"
)

// Vector is a dense feature vector.
type Vector []float64

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Add accumulates w into v in place. It panics if lengths differ.
func (v Vector) Add(w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("vec: Add dimension mismatch %d != %d", len(v), len(w)))
	}
	w = w[:len(v)]
	i := 0
	for ; i+4 <= len(v); i += 4 {
		v[i] += w[i]
		v[i+1] += w[i+1]
		v[i+2] += w[i+2]
		v[i+3] += w[i+3]
	}
	for ; i < len(v); i++ {
		v[i] += w[i]
	}
}

// Sub subtracts w from v in place. It panics if lengths differ.
func (v Vector) Sub(w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("vec: Sub dimension mismatch %d != %d", len(v), len(w)))
	}
	w = w[:len(v)]
	i := 0
	for ; i+4 <= len(v); i += 4 {
		v[i] -= w[i]
		v[i+1] -= w[i+1]
		v[i+2] -= w[i+2]
		v[i+3] -= w[i+3]
	}
	for ; i < len(v); i++ {
		v[i] -= w[i]
	}
}

// Scale multiplies every element of v by s in place.
func (v Vector) Scale(s float64) {
	i := 0
	for ; i+4 <= len(v); i += 4 {
		v[i] *= s
		v[i+1] *= s
		v[i+2] *= s
		v[i+3] *= s
	}
	for ; i < len(v); i++ {
		v[i] *= s
	}
}

// Dot returns the inner product of v and w under the four-lane
// summation contract (see kernels.go). It panics if lengths differ.
func (v Vector) Dot(w Vector) float64 {
	return Dot(v, w)
}

// Norm returns the Euclidean (L2) norm of v.
func (v Vector) Norm() float64 {
	return math.Sqrt(v.Dot(v))
}

// Dataset is a collection of n feature vectors of equal dimension with
// optional integer class labels (semantic ground truth; -1 when unknown).
// It is the in-memory representation of an image database.
type Dataset struct {
	// Points holds one feature vector per item.
	Points []Vector
	// Labels holds the semantic class of each item, or is nil when the
	// dataset has no ground truth. Labels[i] corresponds to Points[i].
	Labels []int
	// Name identifies the dataset in reports (e.g. "COIL-sim").
	Name string
}

// Len returns the number of points in the dataset.
func (d *Dataset) Len() int { return len(d.Points) }

// Dim returns the feature dimensionality, or 0 for an empty dataset.
func (d *Dataset) Dim() int {
	if len(d.Points) == 0 {
		return 0
	}
	return len(d.Points[0])
}

// Validate checks structural invariants: uniform dimensionality, label
// slice length, finite values. It returns a descriptive error on the
// first violation found.
func (d *Dataset) Validate() error {
	if len(d.Points) == 0 {
		return fmt.Errorf("vec: dataset %q is empty", d.Name)
	}
	dim := len(d.Points[0])
	if dim == 0 {
		return fmt.Errorf("vec: dataset %q has zero-dimensional points", d.Name)
	}
	for i, p := range d.Points {
		if len(p) != dim {
			return fmt.Errorf("vec: dataset %q point %d has dim %d, want %d", d.Name, i, len(p), dim)
		}
		for j, x := range p {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("vec: dataset %q point %d component %d is not finite", d.Name, i, j)
			}
		}
	}
	if d.Labels != nil && len(d.Labels) != len(d.Points) {
		return fmt.Errorf("vec: dataset %q has %d labels for %d points", d.Name, len(d.Labels), len(d.Points))
	}
	return nil
}

// Metric measures distance between two equal-length vectors. The paper
// uses Euclidean distance in L_p feature space (Section 3).
type Metric interface {
	// Distance returns the distance between a and b. Implementations
	// must be symmetric, non-negative, and zero for identical inputs.
	Distance(a, b Vector) float64
}

// Euclidean is the L2 metric, the paper's default (Section 3).
type Euclidean struct{}

// Distance returns the L2 distance between a and b.
func (Euclidean) Distance(a, b Vector) float64 {
	return math.Sqrt(SquaredEuclidean(a, b))
}

// SquaredEuclidean returns the squared L2 distance between a and b
// without the final square root; useful in inner loops where only the
// ordering of distances matters. It accumulates under the four-lane
// summation contract (see kernels.go).
func SquaredEuclidean(a, b Vector) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: distance dimension mismatch %d != %d", len(a), len(b)))
	}
	return sqdist(a, b)
}

// Manhattan is the L1 metric, provided for completeness with the
// paper's discussion of general L_p spaces.
type Manhattan struct{}

// Distance returns the L1 distance between a and b.
func (Manhattan) Distance(a, b Vector) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: distance dimension mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i, x := range a {
		s += math.Abs(x - b[i])
	}
	return s
}

// Cosine is 1 - cosine similarity, commonly used for high-dimensional
// sparse image descriptors. Zero vectors are at distance 1 from
// everything (including each other) to keep the metric total.
type Cosine struct{}

// Distance returns 1 minus the cosine of the angle between a and b.
func (Cosine) Distance(a, b Vector) float64 {
	na, nb := a.Norm(), b.Norm()
	if na == 0 || nb == 0 {
		return 1
	}
	c := a.Dot(b) / (na * nb)
	// Clamp against floating-point drift outside [-1, 1].
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return 1 - c
}

// Stddev returns the standard deviation of the values. It returns 0 for
// fewer than two values. The paper sets the heat-kernel bandwidth sigma
// to the standard deviation of observed distances (Section 3).
func Stddev(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	var mean float64
	for _, v := range values {
		mean += v
	}
	mean /= float64(len(values))
	var ss float64
	for _, v := range values {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(values)))
}
