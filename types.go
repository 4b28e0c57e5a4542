package disc

import (
	"fmt"
	"io"
	"strings"

	"github.com/discdiversity/disc/internal/dataset"
	"github.com/discdiversity/disc/internal/object"
)

// Point is a vector in d-dimensional space; for categorical data each
// coordinate holds a category code (compare with Hamming()).
type Point = object.Point

// Metric is a distance function satisfying the metric axioms; the M-tree
// index relies on the triangle inequality.
type Metric = object.Metric

// Neighbor pairs an object ID with its distance from a query object.
type Neighbor = object.Neighbor

// Dataset bundles points with optional labels and attribute metadata.
type Dataset = object.Dataset

// Index selects the neighbourhood-search backend a Diversifier queries.
// All backends return identical selections under the deterministic
// greedy algorithms; they differ only in build cost, query cost and
// metric support. See the "Index backends" section of the package
// documentation for guidance.
type Index int

const (
	// IndexMTree is the paper's M-tree (default): a dynamic metric index
	// that works with any metric and reports node accesses, the paper's
	// cost measure.
	IndexMTree Index = iota
	// IndexLinearScan scans all points per query: no build cost, exact,
	// best for small inputs.
	IndexLinearScan
	// Values 2 and 3 belonged to the removed VP-tree and R-tree; they
	// stay unassigned so a stored numeric Index never silently selects
	// a different backend.
	_
	_
	// IndexCoverageGraph materialises the full r-coverage graph once per
	// radius using all cores (see WithParallelism), then answers every
	// neighbourhood query in O(degree). The best choice when one radius
	// is queried repeatedly, as the greedy heuristics do. For Lp metrics
	// the graph is built by the uniform-grid ε-join in
	// O(n + candidate pairs). Radii whose graph would pass 128 adjacency
	// entries per object are served by the M-tree or a flat scan
	// instead (see the package documentation), so memory stays linear
	// in n at any radius.
	IndexCoverageGraph
	// Value 5 belonged to the removed uniform-grid backend; like 2 and
	// 3 it stays unassigned, so a stored 5 is rejected rather than
	// remapped (the name "grid" now resolves to the coverage graph).
)

// SelectMode named the ways Select could run the Greedy-DisC family.
//
// Deprecated: Select picks the run from the engine that serves the
// radius, and WithSelectMode has no effect.
type SelectMode int

const (
	// Deprecated: see SelectMode.
	SelectGlobal SelectMode = iota
	// Deprecated: see SelectMode.
	SelectComponents
)

// String implements fmt.Stringer.
func (ix Index) String() string {
	switch ix {
	case IndexMTree:
		return "mtree"
	case IndexLinearScan:
		return "flat"
	case IndexCoverageGraph:
		return "coverage-graph"
	default:
		return fmt.Sprintf("index(%d)", int(ix))
	}
}

// indexNames maps every supported backend to its String() name, in
// display order; IndexByName and option errors derive from it so the
// supported-name list can never drift from the Index constants.
var indexNames = []Index{IndexMTree, IndexLinearScan, IndexCoverageGraph}

// indexAliases maps the names of retired backends to the backend that
// now serves them.
var indexAliases = map[string]Index{"vptree": IndexMTree, "rtree": IndexMTree, "grid": IndexCoverageGraph}

// SupportedIndexNames returns the names of the supported backends, in
// display order. IndexByName also accepts the retired aliases.
func SupportedIndexNames() []string {
	names := make([]string, len(indexNames))
	for i, ix := range indexNames {
		names[i] = ix.String()
	}
	return names
}

// IndexByName resolves an index backend from its String() name
// ("mtree", "flat", "coverage-graph"). The retired names "vptree" and
// "rtree" resolve to IndexMTree, and "grid" to IndexCoverageGraph.
// Unknown names fail immediately with the supported list in the error,
// so misconfiguration surfaces when the option is parsed rather than at
// Diversify time.
func IndexByName(name string) (Index, error) {
	for _, ix := range indexNames {
		if name == ix.String() {
			return ix, nil
		}
	}
	if ix, ok := indexAliases[name]; ok {
		return ix, nil
	}
	return 0, fmt.Errorf("disc: unknown index %q (supported: %s)", name, strings.Join(SupportedIndexNames(), ", "))
}

// Precision selects the coordinate storage width of a Diversifier (see
// WithPrecision).
type Precision = object.Precision

const (
	// PrecisionFloat64 stores coordinates at full double precision (the
	// default).
	PrecisionFloat64 = object.Float64
	// PrecisionFloat32 rounds coordinates to float32 at ingest and keeps
	// a cache-aligned float32 mirror the batched kernels pre-filter on.
	// Distances are still evaluated in exact float64 arithmetic over the
	// rounded values, so selections stay bit-identical across backends.
	PrecisionFloat32 = object.Float32
)

// Euclidean returns the L2 metric (the library default).
func Euclidean() Metric { return object.Euclidean{} }

// Manhattan returns the L1 metric.
func Manhattan() Metric { return object.Manhattan{} }

// Chebyshev returns the L∞ metric.
func Chebyshev() Metric { return object.Chebyshev{} }

// Hamming returns the categorical metric counting differing coordinates,
// suited to datasets whose coordinates are category codes.
func Hamming() Metric { return object.Hamming{} }

// Cosine returns the angular dissimilarity 1 − cos(a, b), the standard
// distance for embedding vectors. It is symmetric and non-negative but
// violates the triangle inequality, so the M-tree's ball pruning
// rejects it; IndexCoverageGraph (which serves it with the
// batched flat join — the auto-selected default for this metric) and
// IndexLinearScan support it. The zero vector is at distance 1 from
// everything, including itself.
func Cosine() Metric { return object.Cosine{} }

// InnerProduct returns the dissimilarity 1 − ⟨a, b⟩, the inner-product
// surrogate used for maximum-inner-product retrieval over normalised
// embeddings. Like Cosine it violates the triangle inequality (and even
// d(x,x) = 0), so only the scan-based backends serve it; it is mainly
// useful when vectors are pre-normalised and the 1 − dot ranking is the
// quantity of interest.
func InnerProduct() Metric { return object.DotProduct{} }

// MetricByName resolves "euclidean", "manhattan", "chebyshev",
// "hamming", "cosine" or "dot" (plus the aliases "l1", "l2", "linf" and
// "inner-product").
func MetricByName(name string) (Metric, error) { return object.MetricByName(name) }

// ReadCSV parses a dataset written by Dataset.WriteCSV.
func ReadCSV(r io.Reader) (*Dataset, error) { return object.ReadCSV(r) }

// UniformDataset generates n points uniformly distributed in [0,1]^d,
// deterministically for a given seed.
func UniformDataset(n, d int, seed uint64) (*Dataset, error) {
	return dataset.Uniform(n, d, seed)
}

// ClusteredDataset generates n points forming hyperspherical clusters of
// different sizes in [0,1]^d (clusters <= 0 selects a default of 10).
func ClusteredDataset(n, d, clusters int, seed uint64) (*Dataset, error) {
	return dataset.Clustered(n, d, clusters, seed)
}

// CitiesDataset returns the 5922-point geographic workload modelled on
// the paper's Greek cities collection (see DESIGN.md for the
// substitution).
func CitiesDataset(seed uint64) *Dataset { return dataset.Cities(seed) }

// CamerasDataset returns the 579-camera categorical workload modelled on
// the paper's Acme camera database; use Hamming() with it.
func CamerasDataset(seed uint64) *Dataset { return dataset.Cameras(seed) }
