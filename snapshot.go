package disc

import (
	"fmt"
	"io"
	"math"

	"github.com/discdiversity/disc/internal/core"
	"github.com/discdiversity/disc/internal/grid"
	"github.com/discdiversity/disc/internal/object"
	"github.com/discdiversity/disc/internal/snap"
)

// Prepare eagerly builds the radius-dependent index artifacts for
// selection radius r — for IndexCoverageGraph the grid occupancy, the
// coverage graph (joined at r when r raises its ceiling, otherwise the
// existing graph's row-prefix view at r) — without running a
// selection. For the radius-independent backends it is a no-op. Use it
// before WriteSnapshot to capture a warm snapshot for a radius that has
// not been selected at yet, or at service start to pay the build cost
// before the first request; preparing the largest radius first makes
// every smaller one a view.
func (d *Diversifier) Prepare(r float64) error {
	if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		return fmt.Errorf("disc: invalid radius %g", r)
	}
	_, err := d.engineForRadius(r, true)
	return err
}

// WriteSnapshot serialises the diversifier to the versioned .discsnap
// binary format (see internal/snap for the layout): always the dataset
// (metric plus row-major coordinates, at the diversifier's configured
// precision — a Float32 diversifier persists the float32 coordinates;
// the embedding metrics' squared norms are recomputed on load), the
// dataset's labels when it was built by NewFromDataset with labels,
// and the configured backend with its build parameters (seed,
// parallelism, M-tree capacity), plus whatever prepared per-radius
// artifacts the current engine holds — for IndexCoverageGraph the
// ceiling graph exactly as the engine holds it (rows by (distance,
// id), which the load checks and keeps), together with the radius its
// grid was bucketed at when the graph was grid-joined (the load
// re-buckets the grid there; the flat-join substrate has no grid).
// Views below the ceiling are not persisted: they are re-derived from
// the graph on demand. Backends that rebuild cheaply
// or deterministically from the dataset (M-tree and linear scan)
// persist the dataset only and are rebuilt on load.
//
// A snapshot written before any Select or Prepare call carries no
// artifacts; LoadDiversifier then behaves like New over the same
// points.
func (d *Diversifier) WriteSnapshot(w io.Writer) error {
	s := &snap.Snapshot{
		Index:       d.index.String(),
		Parallelism: d.parallelism,
		Capacity:    d.capacity,
		Seed:        d.seed,
		Metric:      d.metric.Name(),
		Labels:      d.labels,
	}
	d.mu.Lock()
	e := d.engine
	d.mu.Unlock()
	switch e := e.(type) {
	case *core.ParallelGraphEngine:
		if e.GridJoined() {
			r := e.Grid().Radius()
			s.GridRadius = &r
		}
		s.Graph = e.CSR()
		s.GraphRadius = e.Radius()
	}
	flat := d.flat
	s.N, s.Dim = flat.Len(), flat.Dim()
	if flat.Precision() == PrecisionFloat32 {
		// De-pad the aligned mirror into the wire layout.
		stride, dim := flat.Stride32(), flat.Dim()
		src := flat.Coords32()
		c := make([]float32, s.N*dim)
		for i := 0; i < s.N; i++ {
			copy(c[i*dim:(i+1)*dim], src[i*stride:i*stride+dim])
		}
		s.Coords32 = c
	} else {
		s.Coords = flat.Coords()
	}
	if err := snap.Write(w, s); err != nil {
		return fmt.Errorf("disc: snapshot: %w", err)
	}
	return nil
}

// SaveSnapshot writes the snapshot to path crash-atomically: the bytes
// are produced into a same-directory temp file, fsynced, renamed over
// path, and the parent directory is fsynced — so a crash at any
// instant leaves either the complete old file or the complete new one.
// Use it instead of WriteSnapshot whenever the destination is a file.
func (d *Diversifier) SaveSnapshot(path string) error {
	return snap.WriteFileAtomic(path, d.WriteSnapshot)
}

// LoadDiversifier reconstructs a Diversifier from a snapshot written by
// WriteSnapshot. The dataset is aliased straight out of the decoded
// buffer (no per-point copies), its labels come back with it, and any
// persisted artifacts are rehydrated into the same lazy-engine
// machinery a fresh Diversifier uses: a Select or zoom at the
// snapshot's radius starts from the loaded coverage graph instead of
// rebuilding it, and other radii degrade to exactly the rebuild rules
// of a fresh instance. Loaded engines are bit-identical to freshly
// built ones — same selections, same neighbour lists.
//
// Options are applied on top of the snapshot's recorded configuration
// (index, parallelism, M-tree capacity, construction seed):
// WithIndex/WithIndexName override the backend (artifacts the new
// backend cannot use are ignored and it is built from the dataset), and
// WithParallelism/WithMTreeCapacity/WithSeed override the recorded
// build parameters. WithMetric may only restate the snapshot's metric —
// the coordinates were indexed under it, so a conflicting metric is an
// error rather than a silent reinterpretation. Snapshots written under
// a custom (non-built-in) metric require the caller to supply that
// metric via WithMetric, since only its name is persisted.
func LoadDiversifier(r io.Reader, opts ...Option) (*Diversifier, error) {
	s, err := snap.Read(r)
	if err != nil {
		return nil, fmt.Errorf("disc: load: %w", err)
	}
	// Defaults come from New's, overlaid with the snapshot's recorded
	// configuration, overlaid with the caller's options. The metric
	// default is cleared so a caller-supplied custom metric is
	// distinguishable from "use the snapshot's".
	o := defaultOptions()
	o.metric = nil
	o.seed = s.Seed
	o.parallelism = s.Parallelism
	if s.Capacity >= 4 {
		o.capacity = s.Capacity
	}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	if o.metric == nil {
		m, err := MetricByName(s.Metric)
		if err != nil {
			return nil, fmt.Errorf("disc: load: snapshot metric %q is not built in; supply it with WithMetric", s.Metric)
		}
		o.metric = m
	} else if o.metric.Name() != s.Metric {
		return nil, fmt.Errorf("disc: load: snapshot was written for metric %q, not %q", s.Metric, o.metric.Name())
	}
	if !o.indexSet && s.Index != "" {
		ix, err := IndexByName(s.Index)
		if err != nil {
			return nil, fmt.Errorf("disc: load: snapshot index: %w", err)
		}
		o.index = ix
	}

	var flat *object.FlatDataset
	if s.Coords32 != nil {
		flat, err = object.NewFlatDataset32(s.Coords32, s.N, s.Dim, o.metric)
	} else {
		flat, err = object.NewFlatDataset(s.Coords, s.N, s.Dim, o.metric)
	}
	if err != nil {
		return nil, fmt.Errorf("disc: load: %w", err)
	}
	d := &Diversifier{
		points:      flat.Points(),
		flat:        flat,
		metric:      o.metric,
		index:       o.index,
		parallelism: o.parallelism,
		capacity:    o.capacity,
		seed:        o.seed,
		labels:      s.Labels,
		denseFrom:   math.Inf(1),
	}

	// Rehydrate a persisted coverage graph when the chosen backend can
	// use it; RehydrateGraphEngine revalidates the graph and re-buckets
	// its grid, refusing a grid radius that could not have carried the
	// graph, so a logically inconsistent snapshot fails here instead of
	// answering queries wrongly. A grid radius without a graph (written
	// by the retired grid backend) is ignored, and so is a graph whose
	// grid the metric cannot use: both build lazily.
	if o.index == IndexCoverageGraph && s.Graph != nil && (s.GridRadius == nil || grid.Supports(o.metric)) {
		e, err := core.RehydrateGraphEngine(flat, s.GridRadius, s.Graph, s.GraphRadius, o.parallelism)
		if err != nil {
			return nil, fmt.Errorf("disc: load: %w", err)
		}
		d.engine = e
		return d, nil
	}
	e, err := initialEngine(o, flat, d.points)
	if err != nil {
		return nil, err
	}
	d.engine = e
	return d, nil
}
