// Package dataset provides the four workloads of the paper's evaluation
// (Table 2): synthetic Uniform and Clustered multi-dimensional data in
// [0,1]^d, plus deterministic stand-ins for the two real datasets the
// paper uses — the Greek cities collection and the Acme digital-camera
// database — which are not redistributable. The stand-ins mirror the
// originals' cardinalities and distribution shapes; Cities and Cameras
// explain the substitution.
//
// All generators are pure functions of their seed: the same parameters
// always produce byte-identical datasets.
package dataset

import (
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/discdiversity/disc/internal/object"
)

func newRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb))
}

// Uniform returns n points distributed uniformly in [0,1]^d
// (the paper's "Uniform" dataset; defaults n=10000, d=2).
func Uniform(n, d int, seed uint64) (*object.Dataset, error) {
	if err := checkDims(n, d); err != nil {
		return nil, err
	}
	rng := newRNG(seed)
	ds := &object.Dataset{
		Name:      fmt.Sprintf("uniform-%dd-%d", d, n),
		Points:    make([]object.Point, n),
		AttrNames: axisNames(d),
	}
	for i := range ds.Points {
		p := make(object.Point, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		ds.Points[i] = p
	}
	return ds, nil
}

// Clustered returns n points forming hyperspherical Gaussian clusters of
// different sizes in [0,1]^d (the paper's "Clustered" dataset; defaults
// n=10000, d=2, normal distribution). The number of clusters defaults to
// 10 when clusters <= 0. Cluster populations are skewed so cluster sizes
// differ, matching the paper's description.
func Clustered(n, d, clusters int, seed uint64) (*object.Dataset, error) {
	if err := checkDims(n, d); err != nil {
		return nil, err
	}
	if clusters <= 0 {
		clusters = 10
	}
	rng := newRNG(seed)
	centers := make([]object.Point, clusters)
	sigmas := make([]float64, clusters)
	weights := make([]float64, clusters)
	var wsum float64
	for c := range centers {
		p := make(object.Point, d)
		for j := range p {
			// Keep centres away from the border so most mass stays
			// inside the unit cube.
			p[j] = 0.1 + 0.8*rng.Float64()
		}
		centers[c] = p
		sigmas[c] = 0.01 + 0.05*rng.Float64()
		weights[c] = 0.3 + rng.Float64() // skewed populations
		wsum += weights[c]
	}
	ds := &object.Dataset{
		Name:      fmt.Sprintf("clustered-%dd-%d", d, n),
		Points:    make([]object.Point, n),
		AttrNames: axisNames(d),
	}
	for i := range ds.Points {
		// Pick a cluster proportionally to its weight.
		x := rng.Float64() * wsum
		c := 0
		for x > weights[c] && c < clusters-1 {
			x -= weights[c]
			c++
		}
		p := make(object.Point, d)
		for j := range p {
			p[j] = clamp01(centers[c][j] + rng.NormFloat64()*sigmas[c])
		}
		ds.Points[i] = p
	}
	return ds, nil
}

func clamp01(v float64) float64 {
	return math.Min(1, math.Max(0, v))
}

func checkDims(n, d int) error {
	if n <= 0 {
		return fmt.Errorf("dataset: non-positive cardinality %d", n)
	}
	if d <= 0 {
		return fmt.Errorf("dataset: non-positive dimensionality %d", d)
	}
	return nil
}

func axisNames(d int) []string {
	names := make([]string, d)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
	}
	return names
}

// ByName builds one of the evaluation datasets by name: the paper's
// "uniform", "clustered", "cities" and "cameras", plus "sphere" — the
// clustered unit-norm embedding workload of the high-dimensional
// experiment, served under the cosine distance. n and d apply to the
// synthetic datasets only (pass 0 for the paper defaults).
func ByName(name string, n, d int, seed uint64) (*object.Dataset, object.Metric, error) {
	if n <= 0 {
		n = 10000
	}
	if d <= 0 {
		d = 2
	}
	switch name {
	case "uniform":
		ds, err := Uniform(n, d, seed)
		return ds, object.Euclidean{}, err
	case "clustered":
		ds, err := Clustered(n, d, 0, seed)
		return ds, object.Euclidean{}, err
	case "sphere":
		ds, err := Sphere(n, d, 0, seed)
		return ds, object.Cosine{}, err
	case "cities":
		ds := Cities(seed)
		return ds, object.Euclidean{}, nil
	case "cameras":
		ds := Cameras(seed)
		return ds, object.Hamming{}, nil
	default:
		return nil, nil, fmt.Errorf("dataset: unknown dataset %q", name)
	}
}
