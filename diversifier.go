package disc

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"github.com/discdiversity/disc/internal/core"
	"github.com/discdiversity/disc/internal/grid"
	"github.com/discdiversity/disc/internal/mtree"
	"github.com/discdiversity/disc/internal/object"
	"github.com/discdiversity/disc/internal/vfs"
)

// Algorithm selects the heuristic used by Select. The zero value is
// AlgorithmGreedy, the paper's best size/cost trade-off.
type Algorithm int

const (
	// AlgorithmGreedy is Greedy-DisC with grey-neighbourhood updates:
	// repeatedly select the uncovered object covering the most uncovered
	// objects. Smallest subsets, more index work.
	AlgorithmGreedy Algorithm = iota
	// AlgorithmBasic is Basic-DisC: a single locality-ordered pass
	// selecting any still-uncovered object. Fastest, larger subsets.
	AlgorithmBasic
	// AlgorithmGreedyWhite is Greedy-DisC with white-neighbourhood
	// updates; identical output to AlgorithmGreedy with fewer index
	// accesses on clustered data.
	AlgorithmGreedyWhite
	// AlgorithmLazyGrey trades slightly larger subsets for cheaper
	// updates (half-radius refresh queries).
	AlgorithmLazyGrey
	// AlgorithmLazyWhite is the lazy variant of AlgorithmGreedyWhite.
	AlgorithmLazyWhite
	// AlgorithmCoverage is Greedy-C: coverage-only (r-C) subsets that
	// may include mutually similar objects when that reduces size.
	AlgorithmCoverage
	// AlgorithmFastCoverage is Fast-C: approximate queries for cheaper
	// r-C subsets (marginally larger).
	AlgorithmFastCoverage
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case AlgorithmGreedy:
		return "greedy-disc"
	case AlgorithmBasic:
		return "basic-disc"
	case AlgorithmGreedyWhite:
		return "white-greedy-disc"
	case AlgorithmLazyGrey:
		return "lazy-grey-greedy-disc"
	case AlgorithmLazyWhite:
		return "lazy-white-greedy-disc"
	case AlgorithmCoverage:
		return "greedy-c"
	case AlgorithmFastCoverage:
		return "fast-c"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// Diversifier computes DisC diverse subsets of a fixed set of objects.
// It is safe for concurrent use: every Select, zoom and snapshot write
// may run alongside any other. Engines are immutable indexes, and each
// run keeps its coverage and cost to itself; the only shared state,
// which engine serves which radius, is guarded by a lock held while an
// engine is picked or built, never across a run.
type Diversifier struct {
	points      []Point
	metric      Metric
	index       Index
	parallelism int
	// flat is the shared coordinate storage every dataset-backed engine
	// is built on. For PrecisionFloat32 it carries the aligned float32
	// mirror that accelerates the batched scans, and points aliases its
	// (rounded) float64 view — so Verify, Point and every engine agree
	// on the same coordinates and selections stay bit-identical across
	// backends.
	flat *object.FlatDataset
	// capacity and seed are retained so snapshots can persist them:
	// the dataset-only backends rebuild deterministically from (points,
	// metric, capacity, seed), which is what makes a loaded engine
	// bit-identical to the one that wrote the snapshot.
	capacity int
	seed     uint64
	// labels holds one display label per point, or nil (see
	// NewFromDataset); snapshots carry them.
	labels []string
	// mu guards engine, denseFrom and dense.
	mu sync.Mutex
	// engine answers neighbourhood queries. IndexCoverageGraph, the
	// radius-dependent backend, is built lazily: nil before the first
	// Select, then the ceiling graph (see engineForRadius). Every other
	// index is built once in New.
	engine core.Engine
	// denseFrom is the smallest radius whose coverage graph was refused
	// for passing core.AdjacencyBudget (+Inf until one is): the edge
	// count only grows with r, so IndexCoverageGraph serves every
	// radius from there on with dense, without retrying the join.
	denseFrom float64
	dense     core.Engine
}

type options struct {
	metric      Metric
	capacity    int
	index       Index
	indexSet    bool
	parallelism int
	seed        uint64
	prec        Precision

	// Durability knobs, consumed by OpenUpdater only (see
	// openupdater.go); inert everywhere else.
	walSync     FsyncPolicy
	walInterval time.Duration
	walSegment  int64
	storageFS   vfs.FS
}

// Option configures New.
type Option func(*options) error

// WithMetric sets the distance function (default Euclidean).
func WithMetric(m Metric) Option {
	return func(o *options) error {
		if m == nil {
			return fmt.Errorf("disc: nil metric")
		}
		o.metric = m
		return nil
	}
}

// WithMTreeCapacity sets the M-tree node capacity (default 50, the
// paper's default; minimum 4).
func WithMTreeCapacity(capacity int) Option {
	return func(o *options) error {
		if capacity < 4 {
			return fmt.Errorf("disc: M-tree capacity %d below minimum 4", capacity)
		}
		o.capacity = capacity
		return nil
	}
}

// WithIndex selects the neighbourhood-search backend (default
// IndexMTree). Greedy selections are identical across all index
// choices; only build and query cost differ. Unknown values are
// rejected when New parses its options, with the supported backends
// listed in the error.
func WithIndex(ix Index) Option {
	return func(o *options) error { return o.setIndex(ix) }
}

// WithIndexName is WithIndex resolved from a backend name ("mtree",
// "flat", "coverage-graph", or a retired alias) — the form
// configuration files and command lines carry. Unknown names fail
// eagerly with the supported list in the error (see IndexByName).
func WithIndexName(name string) Option {
	return func(o *options) error {
		ix, err := IndexByName(name)
		if err != nil {
			return err
		}
		return o.setIndex(ix)
	}
}

// WithParallelism sets the worker count IndexCoverageGraph uses to build
// the coverage graph (default GOMAXPROCS). Other indexes ignore it.
func WithParallelism(workers int) Option {
	return func(o *options) error {
		if workers < 0 {
			return fmt.Errorf("disc: negative parallelism %d", workers)
		}
		o.parallelism = workers
		return nil
	}
}

// WithLinearScan is shorthand for WithIndex(IndexLinearScan): an exact
// linear-scan index with no build cost, best for small inputs.
func WithLinearScan() Option {
	return func(o *options) error { return o.setIndex(IndexLinearScan) }
}

func (o *options) setIndex(ix Index) error {
	switch ix {
	case IndexMTree, IndexLinearScan, IndexCoverageGraph:
	default:
		return fmt.Errorf("disc: unknown index %v (supported: %s)", ix, strings.Join(SupportedIndexNames(), ", "))
	}
	if o.indexSet && o.index != ix {
		return fmt.Errorf("disc: conflicting index selections %v and %v", o.index, ix)
	}
	o.index = ix
	o.indexSet = true
	return nil
}

// WithSeed seeds the index construction (only random split policies
// consume it; present for forward compatibility).
func WithSeed(seed uint64) Option {
	return func(o *options) error {
		o.seed = seed
		return nil
	}
}

// WithPrecision selects the coordinate storage width (default
// PrecisionFloat64). PrecisionFloat32 rounds every coordinate to
// float32 once, at ingest, and keeps a cache-aligned float32 mirror
// that the batched scan kernels use as a pre-filter — roughly halving
// memory traffic on high-dimensional data. All distance results are
// still computed in exact float64 arithmetic over the rounded values,
// so selections are bit-identical across every index backend; the only
// approximation is the one-time coordinate rounding. Coordinates whose
// magnitude overflows float32 are rejected by New.
func WithPrecision(p Precision) Option {
	return func(o *options) error {
		if p != PrecisionFloat64 && p != PrecisionFloat32 {
			return fmt.Errorf("disc: unknown precision %v", p)
		}
		o.prec = p
		return nil
	}
}

// defaultOptions is the single source of New's option defaults;
// LoadDiversifier derives its defaults from it too, so the two
// construction paths can never drift.
func defaultOptions() options {
	return options{metric: Euclidean(), capacity: 50}
}

// New builds a Diversifier over points. The slice is retained and must
// not be mutated afterwards.
func New(points []Point, opts ...Option) (*Diversifier, error) {
	o := defaultOptions()
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("disc: empty point set")
	}
	dim, err := object.ValidatePoints(points)
	if err != nil {
		return nil, fmt.Errorf("disc: %w", err)
	}
	// Default index auto-selection: metrics without the triangle
	// inequality (cosine, dot product) cannot use the M-tree's ball
	// pruning, and at high dimensionality the measured winner is the
	// coverage graph's batched flat join (see BENCH_PR7.json) — both
	// route to IndexCoverageGraph, which serves every metric.
	if !o.indexSet && (!object.TriangleSafe(o.metric) || dim > core.GraphFlatJoinDim) {
		o.index = IndexCoverageGraph
	}
	var flat *object.FlatDataset
	if o.prec == PrecisionFloat32 {
		flat, err = object.Flatten32(points, o.metric)
	} else {
		flat, err = object.Flatten(points, o.metric)
	}
	if err != nil {
		return nil, fmt.Errorf("disc: %w", err)
	}
	// The diversifier's points are the dataset's own view: for Float32
	// that is the rounded coordinates, which every engine and Verify
	// must agree on.
	d := &Diversifier{points: flat.Points(), metric: o.metric, index: o.index,
		parallelism: o.parallelism, capacity: o.capacity, seed: o.seed, flat: flat, denseFrom: math.Inf(1)}
	e, err := initialEngine(o, d.flat, d.points)
	if err != nil {
		return nil, err
	}
	d.engine = e
	return d, nil
}

// initialEngine builds the engine New installs for the chosen index: a
// concrete engine for the radius-independent backends, nil for the
// coverage graph (which engineForRadius builds lazily), after failing
// fast on a metric the M-tree could never serve. LoadDiversifier
// shares it for snapshots that carry no prepared artifacts. points must
// be flat.Points() (the dataset's own view).
func initialEngine(o options, flat *object.FlatDataset, points []Point) (core.Engine, error) {
	switch o.index {
	case IndexLinearScan:
		return core.NewFlatEngineOn(flat), nil
	case IndexCoverageGraph:
		// Built lazily: the coverage graph needs the selection radius.
		// Every metric is served — the build picks the grid or batched
		// flat-join substrate per metric and dimensionality.
		return nil, nil
	default:
		// The M-tree's ball pruning assumes the triangle inequality;
		// fail fast on a distance that violates it.
		if !object.TriangleSafe(o.metric) {
			return nil, fmt.Errorf("disc: metric %q violates the triangle inequality; IndexMTree's ball pruning would miss true neighbours (use IndexCoverageGraph or IndexLinearScan)", o.metric.Name())
		}
		return buildMTree(o.metric, o.capacity, o.seed, points)
	}
}

// buildMTree builds the M-tree engine over points.
func buildMTree(m Metric, capacity int, seed uint64, points []Point) (core.Engine, error) {
	cfg := mtree.Config{Capacity: capacity, Metric: m, Policy: mtree.MinOverlap, Seed: seed}
	return core.BuildTreeEngine(cfg, points)
}

// Indexed returns the backend this diversifier queries.
func (d *Diversifier) Indexed() Index { return d.index }

// engineForRadius returns the engine answering queries at radius r.
// IndexCoverageGraph is built lazily and keeps one graph, joined at its
// ceiling: the largest radius selected so far. With rebuild set
// (Select, Prepare and the extensions) a radius above the ceiling
// raises it with one join — reusing the grid occupancy whenever the new
// radius still fits its cell side — and every radius at or below it is
// served by the same graph as row-prefix views, with no join. With
// rebuild unset (the zoom paths) nothing is built when an engine
// exists: the graph answers any radius exactly, above its ceiling
// through its substrate's fallback scans, so a zoom out never raises
// the ceiling.
//
// A coverage graph with more than core.AdjacencyBudget entries is never
// materialised: the join stops at the budget and that radius, like
// every larger one, is served by denseEngine instead. The ceiling graph
// stays and keeps serving the radii below it.
//
// The pick (and any build) runs under d.mu; the engine returned is
// immutable, so the caller runs on it without the lock, and a later
// raise of the ceiling leaves it valid.
func (d *Diversifier) engineForRadius(r float64, rebuild bool) (core.Engine, error) {
	if d.index != IndexCoverageGraph {
		return d.engine, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	g, _ := d.engine.(*core.ParallelGraphEngine)
	if !rebuild && (g != nil || d.dense != nil) {
		if g != nil && r < d.denseFrom {
			return g, nil
		}
		return d.dense, nil
	}
	if r >= d.denseFrom {
		return d.denseEngine()
	}
	if g != nil && r <= g.Radius() {
		return g, nil
	}
	budget := core.AdjacencyBudget(d.flat.Len())
	var err error
	if g != nil {
		g, err = g.Rebuild(r, budget)
	} else {
		g, err = core.BuildParallelGraphEngineCapped(d.flat, r, d.parallelism, budget)
	}
	if errors.Is(err, grid.ErrTooDense) {
		d.denseFrom = r
		return d.denseEngine()
	}
	if err != nil {
		return nil, err
	}
	d.engine = g
	return g, nil
}

// denseEngine serves IndexCoverageGraph radii whose graph passes the
// adjacency budget, on an engine whose memory does not grow with the
// edge count: the M-tree where the metric keeps the triangle inequality
// (README "Serving" prices it past the budget in its density table),
// the flat scan otherwise. It is built once and kept beside the ceiling
// graph. Greedy selections and zooms are the same ids on every engine;
// only the cost differs. The caller holds d.mu.
func (d *Diversifier) denseEngine() (core.Engine, error) {
	if d.dense == nil {
		if object.TriangleSafe(d.metric) {
			e, err := buildMTree(d.metric, d.capacity, d.seed, d.points)
			if err != nil {
				return nil, err
			}
			d.dense = e
		} else {
			d.dense = core.NewFlatEngineOn(d.flat)
		}
	}
	return d.dense, nil
}

// NewFromDataset is New over ds.Points that also keeps ds.Labels (nil,
// empty, or one per point), which Labels returns and snapshots persist.
// Both slices are retained and must not be mutated afterwards.
func NewFromDataset(ds *Dataset, opts ...Option) (*Diversifier, error) {
	if ds == nil {
		return nil, fmt.Errorf("disc: nil dataset")
	}
	if len(ds.Labels) != 0 && len(ds.Labels) != len(ds.Points) {
		return nil, fmt.Errorf("disc: %d labels for %d points", len(ds.Labels), len(ds.Points))
	}
	d, err := New(ds.Points, opts...)
	if err != nil {
		return nil, err
	}
	if len(ds.Labels) != 0 {
		d.labels = ds.Labels
	}
	return d, nil
}

// Labels returns the label of every object, indexed by id, or nil when
// the diversifier was built without labels. The slice must not be
// mutated.
func (d *Diversifier) Labels() []string { return d.labels }

// Len returns the number of objects under diversification.
func (d *Diversifier) Len() int { return len(d.points) }

// Metric returns the distance function in use.
func (d *Diversifier) Metric() Metric { return d.metric }

// Point returns the coordinates of object id.
func (d *Diversifier) Point(id int) Point { return d.points[id] }

type selectOptions struct {
	algorithm Algorithm
	noPrune   bool
}

// SelectOption configures Select.
type SelectOption func(*selectOptions)

// WithAlgorithm picks the selection heuristic (default AlgorithmGreedy).
func WithAlgorithm(a Algorithm) SelectOption {
	return func(o *selectOptions) { o.algorithm = a }
}

// WithoutPruning disables the grey-subtree pruning rule; mainly useful
// for cost comparisons.
func WithoutPruning() SelectOption {
	return func(o *selectOptions) { o.noPrune = true }
}

// WithSelectMode has no effect.
//
// Deprecated: Select picks the Greedy-DisC run from the engine that
// serves the radius (the adjacency run on the coverage graph, the
// global run elsewhere); both return the same ids in the same order.
func WithSelectMode(m SelectMode) SelectOption {
	return func(*selectOptions) {}
}

// greedyUpdate maps a Greedy-DisC family member to its count-update
// strategy; ok is false for the non-greedy algorithms.
func greedyUpdate(a Algorithm) (core.UpdateStrategy, bool) {
	switch a {
	case AlgorithmGreedy:
		return core.UpdateGrey, true
	case AlgorithmGreedyWhite:
		return core.UpdateWhite, true
	case AlgorithmLazyGrey:
		return core.UpdateLazyGrey, true
	case AlgorithmLazyWhite:
		return core.UpdateLazyWhite, true
	default:
		return 0, false
	}
}

// Select computes an r-DisC diverse subset (or an r-C subset for the
// coverage-only algorithms) of the indexed objects.
//
// The Greedy-DisC family runs on whichever engine serves r. On the
// coverage graph (IndexCoverageGraph below the adjacency budget) it is
// one pruned greedy over the graph's rows with a bucket queue; on every
// other engine
// (the M-tree, the linear scan, the coverage graph's dense fallback) it
// is the paper's global run. Both pick the same ids in the same order.
func (d *Diversifier) Select(r float64, opts ...SelectOption) (*Result, error) {
	if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		return nil, fmt.Errorf("disc: invalid radius %g", r)
	}
	var o selectOptions
	for _, opt := range opts {
		opt(&o)
	}
	// Validate before engineForRadius: an unknown algorithm must not pay
	// for a coverage-graph build.
	update, isGreedy := greedyUpdate(o.algorithm)
	switch o.algorithm {
	case AlgorithmGreedy, AlgorithmBasic, AlgorithmGreedyWhite, AlgorithmLazyGrey,
		AlgorithmLazyWhite, AlgorithmCoverage, AlgorithmFastCoverage:
	default:
		return nil, fmt.Errorf("disc: unknown algorithm %v", o.algorithm)
	}
	pruned := !o.noPrune
	e, err := d.engineForRadius(r, true)
	if err != nil {
		return nil, err
	}
	_, onGraph := e.(*core.ParallelGraphEngine)
	var sol *core.Solution
	switch {
	case isGreedy && onGraph:
		sol = core.GreedyDisCComponents(e, r, core.GreedyOptions{Update: update, Pruned: pruned})
	case isGreedy:
		sol = core.GreedyDisC(e, r, core.GreedyOptions{Update: update, Pruned: pruned})
	case o.algorithm == AlgorithmBasic:
		sol = core.BasicDisC(e, r, pruned)
	case o.algorithm == AlgorithmCoverage:
		sol = core.GreedyC(e, r)
	default: // AlgorithmFastCoverage
		sol = core.FastC(e, r)
	}
	return &Result{div: d, sol: sol, coverageOnly: o.algorithm == AlgorithmCoverage || o.algorithm == AlgorithmFastCoverage}, nil
}

// Verify checks the result against Definition 1 by direct distance
// computation: coverage for all results, plus dissimilarity for DisC
// (non coverage-only) results. It is O(n·|S|) and intended for tests and
// debugging.
func (d *Diversifier) Verify(res *Result) error {
	if res == nil || res.div != d {
		return fmt.Errorf("disc: result does not belong to this diversifier")
	}
	if res.multiRadii != nil {
		return d.VerifyMultiRadius(res)
	}
	if res.coverageOnly {
		return core.CheckCoverage(d.points, d.metric, res.sol.IDs, res.sol.Radius)
	}
	return core.CheckDisC(d.points, d.metric, res.sol.IDs, res.sol.Radius)
}
