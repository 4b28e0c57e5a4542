package object

import (
	"fmt"
	"math"
)

// Metric is a distance function over points. Implementations must satisfy
// the metric axioms (non-negativity, identity, symmetry, triangle
// inequality); the M-tree relies on the triangle inequality for pruning.
type Metric interface {
	// Dist returns the distance between a and b. Both points must share
	// the metric's expected dimensionality; behaviour is undefined (but
	// never a panic beyond slice bounds) otherwise.
	Dist(a, b Point) float64
	// Name returns a short, stable identifier such as "euclidean".
	Name() string
}

// Euclidean is the L2 metric used by the paper for all numeric datasets.
type Euclidean struct{}

// Dist returns sqrt(sum((a_i-b_i)^2)).
func (Euclidean) Dist(a, b Point) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Name implements Metric.
func (Euclidean) Name() string { return "euclidean" }

// Manhattan is the L1 metric (paper Lemma 3 / Lemma 4(ii)).
type Manhattan struct{}

// Dist returns sum(|a_i-b_i|).
func (Manhattan) Dist(a, b Point) float64 {
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// Name implements Metric.
func (Manhattan) Name() string { return "manhattan" }

// Chebyshev is the L∞ metric, provided for completeness.
type Chebyshev struct{}

// Dist returns max(|a_i-b_i|).
func (Chebyshev) Dist(a, b Point) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// Name implements Metric.
func (Chebyshev) Name() string { return "chebyshev" }

// Hamming counts the coordinates on which two points differ. It is the
// metric the paper uses for the categorical Cameras dataset, where each
// coordinate holds a category code.
type Hamming struct{}

// Dist returns the number of differing coordinates.
func (Hamming) Dist(a, b Point) float64 {
	var s float64
	for i := range a {
		if a[i] != b[i] {
			s++
		}
	}
	return s
}

// Name implements Metric.
func (Hamming) Name() string { return "hamming" }

// NonMetric marks distance functions that violate the metric axioms —
// in particular the triangle inequality — and therefore must be
// rejected by indexes whose pruning relies on it (the M-tree). The
// embedding dissimilarities (Cosine, DotProduct) carry the marker: they
// are the native comparison for learned representations but are not
// metrics, so only scan-based backends (the flat engine and the
// coverage graph's flat batched join) can serve them exactly.
type NonMetric interface {
	Metric
	// NonMetric is a marker method; implementations are empty.
	NonMetric()
}

// TriangleSafe reports whether m may be used with triangle-inequality
// pruning indexes: built-in and custom metrics qualify unless they
// carry the NonMetric marker.
func TriangleSafe(m Metric) bool {
	_, nonMetric := m.(NonMetric)
	return !nonMetric
}

// Cosine is the cosine dissimilarity 1 − cos(a, b) = 1 − ⟨a,b⟩/(‖a‖‖b‖),
// the native comparison for learned embedding vectors. Range semantics:
// d ≤ r keeps every vector whose angle to the query is at most
// arccos(1−r), so r ∈ [0, 2] (0 keeps only parallel vectors, 1 keeps
// the half-space, 2 keeps everything). A zero vector has no direction;
// its dissimilarity to anything is defined as 1.
//
// Cosine is NOT a metric (the triangle inequality fails), so it carries
// the NonMetric marker and is rejected by the tree indexes; use the
// flat or coverage-graph backends, whose flat batched scan serves it
// exactly.
type Cosine struct{}

// Dist returns 1 − ⟨a,b⟩/(‖a‖‖b‖), or 1 when either vector is zero.
func (Cosine) Dist(a, b Point) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 1
	}
	return 1 - dot/math.Sqrt(na*nb)
}

// Name implements Metric.
func (Cosine) Name() string { return "cosine" }

// NonMetric implements NonMetric: cosine dissimilarity violates the
// triangle inequality.
func (Cosine) NonMetric() {}

// DotProduct is the inner-product dissimilarity 1 − ⟨a,b⟩, the
// maximum-inner-product comparison rewritten as a dissimilarity so the
// range predicate d ≤ r selects exactly the vectors with ⟨q,x⟩ ≥ 1−r.
// It is intended for unit-normalised embeddings, where it equals half
// the squared Euclidean distance; on unnormalised data it can be
// negative and is still served exactly by the scan backends, but radius
// semantics are the caller's responsibility.
//
// DotProduct is NOT a metric; see Cosine for the backend restrictions.
type DotProduct struct{}

// Dist returns 1 − ⟨a,b⟩.
func (DotProduct) Dist(a, b Point) float64 {
	var dot float64
	for i := range a {
		dot += a[i] * b[i]
	}
	return 1 - dot
}

// Name implements Metric.
func (DotProduct) Name() string { return "dot" }

// NonMetric implements NonMetric: inner-product dissimilarity violates
// every metric axiom except symmetry.
func (DotProduct) NonMetric() {}

// MetricByName resolves a metric from its Name(). It recognises
// "euclidean", "manhattan", "chebyshev", "hamming", "cosine" and "dot".
func MetricByName(name string) (Metric, error) {
	switch name {
	case "euclidean", "l2":
		return Euclidean{}, nil
	case "manhattan", "l1":
		return Manhattan{}, nil
	case "chebyshev", "linf":
		return Chebyshev{}, nil
	case "hamming":
		return Hamming{}, nil
	case "cosine":
		return Cosine{}, nil
	case "dot", "inner-product":
		return DotProduct{}, nil
	default:
		return nil, fmt.Errorf("object: unknown metric %q", name)
	}
}

// MaxPairwiseDist returns the largest pairwise distance in pts (the radius
// at which a single object covers everything). O(n^2); intended for small
// inputs and experiment setup.
func MaxPairwiseDist(pts []Point, m Metric) float64 {
	var best float64
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if d := m.Dist(pts[i], pts[j]); d > best {
				best = d
			}
		}
	}
	return best
}
