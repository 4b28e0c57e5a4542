package experiments

import (
	"fmt"
	"runtime"
	"time"

	disc "github.com/discdiversity/disc"
	"github.com/discdiversity/disc/internal/core"
	"github.com/discdiversity/disc/internal/dataset"
	"github.com/discdiversity/disc/internal/grid"
	"github.com/discdiversity/disc/internal/object"
	"github.com/discdiversity/disc/internal/stats"
)

// highdim.go measures the high-dimensional embedding workload — the
// BENCH_PR7.json suite. Three questions, one suite:
//
//  1. Joins: how much faster is the batched coverage-graph build
//     (grid.FlatJoin, fused early-exit kernels, optionally the float32
//     pre-filter) than the per-pair scalar protocol it replaced
//     (grid.FlatJoinScalar) at embedding scale? The speedup ratio is
//     the bench-guard gate: being a ratio of two runs on the same
//     machine it is robust to hardware differences, unlike wall-clock.
//  2. Kernels: raw one-vs-many throughput (ns per candidate row) of the
//     scalar protocol, RawBatch, the fused FilterWithin, and the
//     float32 pre-filter across the common embedding widths.
//  3. Crossover: at which dimensionality the spatial grid ε-join loses
//     to the flat all-pairs join — the measurement behind
//     core.GraphFlatJoinDim and New's index auto-selection.
//
// Plus the per-operation cost of incremental repair (the Updater) at
// embedding dimensionality, on a reduced cardinality: the grid
// substrate that repair runs on degenerates at high d, which is
// exactly the behaviour worth recording.

// HighDimJoin is one metric's coverage-graph build comparison at the
// main workload's n and dim.
type HighDimJoin struct {
	Metric string
	Radius float64
	Edges  int
	// ScalarBuildMS is grid.FlatJoinScalar (one kernel call and
	// threshold test per candidate pair); BatchBuildMS is grid.FlatJoin
	// over the same float64 dataset; Batch32BuildMS is grid.FlatJoin
	// over the Float32 dataset (float32 pre-filter + exact recheck).
	ScalarBuildMS  float64
	BatchBuildMS   float64
	Batch32BuildMS float64
	// Speedup = ScalarBuildMS/BatchBuildMS, Speedup32 =
	// ScalarBuildMS/Batch32BuildMS. Speedup is the gated ratio.
	Speedup   float64
	Speedup32 float64
	// SelectMSOp is the pruned component-decomposed Greedy-DisC over the
	// built graph (steady-state: adjacency and components cached).
	SelectMSOp   float64
	SolutionSize int
}

// HighDimKernel is one (dim, metric) row of the kernel throughput
// sweep; all numbers are nanoseconds per candidate row.
type HighDimKernel struct {
	Dim    int
	Metric string
	// ScalarNsRow: per-pair Raw call + threshold test. BatchNsRow:
	// RawBatch over the contiguous block. FilterNsRow: fused
	// FilterWithin. Filter32NsRow: the Float32 dataset's pre-filtered
	// range scan (including the exact float64 recheck of survivors).
	ScalarNsRow   float64
	BatchNsRow    float64
	FilterNsRow   float64
	Filter32NsRow float64
}

// HighDimCrossover is one dimensionality of the grid-vs-flat join
// comparison (uniform cube data, Euclidean, fixed radius).
type HighDimCrossover struct {
	Dim int
	// GridBuildMS covers grid.Build + grid.Join (what the graph engine's
	// grid substrate pays); FlatBuildMS is grid.FlatJoin.
	GridBuildMS float64
	FlatBuildMS float64
}

// HighDimBench is the machine-readable result of the "highdim"
// experiment; its Suite is the BENCH_PR7.json baseline.
type HighDimBench struct {
	Dataset    string
	N          int
	Dim        int
	Seed       uint64
	GoMaxProcs int
	GoVersion  string

	Joins     []HighDimJoin
	Kernels   []HighDimKernel
	Crossover []HighDimCrossover

	// Incremental repair at embedding dimensionality: UpdateN points
	// (the grid substrate repair runs on degenerates at high d, so the
	// cardinality is reduced), Euclidean (the Updater's substrate does
	// not serve cosine), per-operation convergence.
	UpdateN      int
	UpdateRadius float64
	UpdateMSOp   float64
}

// The sphere workload's radii. On unit-norm vectors the Euclidean and
// cosine distances are locked together (d_E² = 2·d_cos), so these two
// describe comparable neighbourhoods; both sit below the within-cluster
// concentration point of most clusters, keeping the edge count bounded.
const (
	highDimCosineRadius    = 0.1
	highDimEuclideanRadius = 0.45
)

// highDimDims returns (main dim, kernel sweep dims, crossover dims).
func (c Config) highDimDims() (int, []int, []int) {
	if c.Quick {
		return 16, []int{16, 64}, []int{2, 4, 8}
	}
	return 128, []int{64, 128, 384, 768}, []int{2, 4, 6, 8, 10, 12, 16}
}

// wallMS times one execution of f in milliseconds. Join builds at
// embedding scale run seconds to minutes on the measurement hardware,
// so a single run is the whole budget; the bench-guard gate consumes
// the scalar/batched ratio, which is stable across runs because both
// sides share the workload, sharding and merge.
func wallMS(f func()) float64 {
	start := time.Now()
	f()
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// HighDim measures the embedding workload and returns the snapshot.
func HighDim(cfg Config) (*HighDimBench, error) {
	n := cfg.n()
	dim, kernelDims, crossDims := cfg.highDimDims()
	workers := cfg.parallelism()

	// Many small clusters rather than the cube generator's 10: at high
	// dimensionality within-cluster distances concentrate, so a cluster
	// below the radius becomes a clique — cluster population, not the
	// radius, is what bounds the edge count.
	clusters := n / 64
	ds, err := dataset.Sphere(n, dim, clusters, cfg.Seed)
	if err != nil {
		return nil, err
	}
	res := &HighDimBench{
		Dataset:    ds.Name,
		N:          n,
		Dim:        dim,
		Seed:       cfg.Seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}

	type joinCase struct {
		metric object.Metric
		r      float64
	}
	for _, jc := range []joinCase{
		{object.Euclidean{}, highDimEuclideanRadius},
		{object.Cosine{}, highDimCosineRadius},
	} {
		row, err := highDimJoin(ds.Points, jc.metric, jc.r, workers)
		if err != nil {
			return nil, fmt.Errorf("experiments: highdim: %s: %w", jc.metric.Name(), err)
		}
		res.Joins = append(res.Joins, *row)
	}

	for _, d := range kernelDims {
		rows, err := highDimKernels(d, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: highdim: kernels d=%d: %w", d, err)
		}
		res.Kernels = append(res.Kernels, rows...)
	}

	crossN := n
	if crossN > 5000 {
		// The grid path's ring enumeration is the thing being measured to
		// destruction; a bounded cardinality keeps the losing side's
		// runtime (and the edge count at d=2) within the budget.
		crossN = 5000
	}
	for _, d := range crossDims {
		row, err := highDimCrossover(crossN, d, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiments: highdim: crossover d=%d: %w", d, err)
		}
		res.Crossover = append(res.Crossover, *row)
	}

	if err := highDimUpdate(cfg, ds, res); err != nil {
		return nil, fmt.Errorf("experiments: highdim: update: %w", err)
	}
	return res, nil
}

// highDimJoin measures one metric's build comparison plus the
// steady-state selection on the resulting graph.
func highDimJoin(pts []object.Point, m object.Metric, r float64, workers int) (*HighDimJoin, error) {
	flat64, err := object.Flatten(pts, m)
	if err != nil {
		return nil, err
	}
	flat32, err := object.Flatten32(pts, m)
	if err != nil {
		return nil, err
	}
	row := &HighDimJoin{Metric: m.Name(), Radius: r}

	var csr *grid.CSR
	row.ScalarBuildMS = wallMS(func() { csr, _, err = grid.FlatJoinScalar(flat64, r, workers) })
	if err != nil {
		return nil, err
	}
	row.Edges = len(csr.Nbrs) / 2

	row.BatchBuildMS = wallMS(func() { csr, _, err = grid.FlatJoin(flat64, r, workers) })
	if err != nil {
		return nil, err
	}
	var csr32 *grid.CSR
	row.Batch32BuildMS = wallMS(func() { csr32, _, err = grid.FlatJoin(flat32, r, workers) })
	if err != nil {
		return nil, err
	}
	if row.BatchBuildMS > 0 {
		row.Speedup = row.ScalarBuildMS / row.BatchBuildMS
	}
	if row.Batch32BuildMS > 0 {
		row.Speedup32 = row.ScalarBuildMS / row.Batch32BuildMS
	}

	// Steady-state selection over the already-built adjacency (warm
	// substrate; the joins above are the build cost).
	e, err := core.RehydrateFlatGraphEngine(flat32, csr32, r, workers)
	if err != nil {
		return nil, err
	}
	var sol *core.Solution
	nsOp, _, _ := measure(func() {
		sol = core.GreedyDisCComponents(e, r, core.GreedyOptions{Update: core.UpdateGrey, Pruned: true}, workers)
	}, 2*time.Second)
	row.SelectMSOp = float64(nsOp) / 1e6
	row.SolutionSize = sol.Size()
	return row, nil
}

// kernelRows is the candidate-block size of the throughput sweep: large
// enough to hide loop setup, small enough that four metrics times four
// widths stay cheap.
const kernelRows = 4096

// highDimKernels measures ns-per-row of the four evaluation protocols
// at one embedding width, for Euclidean and cosine.
func highDimKernels(dim int, seed uint64) ([]HighDimKernel, error) {
	ds, err := dataset.Sphere(kernelRows, dim, kernelRows/64, seed)
	if err != nil {
		return nil, err
	}
	var rows []HighDimKernel
	for _, mr := range []struct {
		m object.Metric
		r float64
	}{
		{object.Euclidean{}, highDimEuclideanRadius},
		{object.Cosine{}, highDimCosineRadius},
	} {
		flat64, err := object.Flatten(ds.Points, mr.m)
		if err != nil {
			return nil, err
		}
		flat32, err := object.Flatten32(ds.Points, mr.m)
		if err != nil {
			return nil, err
		}
		k := flat64.Kernel()
		q := flat64.Row(0)
		coords := flat64.Coords()
		rawR := k.RawThreshold(mr.r)
		out := make([]float64, kernelRows)
		idbuf := make([]int32, 0, kernelRows)
		nbuf := make([]object.Neighbor, 0, kernelRows)
		row := HighDimKernel{Dim: dim, Metric: mr.m.Name()}

		var hits int
		nsOp, _, _ := measure(func() {
			hits = 0
			for off := 0; off < len(coords); off += dim {
				if k.Raw(q, coords[off:off+dim:off+dim]) <= rawR {
					hits++
				}
			}
		}, 200*time.Millisecond)
		row.ScalarNsRow = float64(nsOp) / kernelRows
		_ = hits

		nsOp, _, _ = measure(func() { k.RawBatch(q, coords, out) }, 200*time.Millisecond)
		row.BatchNsRow = float64(nsOp) / kernelRows

		nsOp, _, _ = measure(func() { idbuf = k.FilterWithin(q, coords, 0, rawR, idbuf[:0]) }, 200*time.Millisecond)
		row.FilterNsRow = float64(nsOp) / kernelRows

		nsOp, _, _ = measure(func() {
			nbuf = flat32.AppendRange(nbuf[:0], flat32.Row(0), mr.r, 0)
		}, 200*time.Millisecond)
		row.Filter32NsRow = float64(nsOp) / kernelRows

		rows = append(rows, row)
	}
	return rows, nil
}

// crossoverRadius is the fixed Euclidean radius of the grid-vs-flat
// sweep. The cell side tracks the radius, so one radius across
// dimensionalities shows the geometric collapse cleanly: cells per axis
// shrink as the cap forces side-doubling, the ±1 ring approaches the
// whole directory, and the grid's candidate set approaches all pairs.
const crossoverRadius = 0.15

// highDimCrossover measures grid-vs-flat join cost at one
// dimensionality over uniform cube data.
func highDimCrossover(n, dim int, seed uint64) (*HighDimCrossover, error) {
	ds, err := dataset.Uniform(n, dim, seed)
	if err != nil {
		return nil, err
	}
	flat, err := object.Flatten(ds.Points, object.Euclidean{})
	if err != nil {
		return nil, err
	}
	row := &HighDimCrossover{Dim: dim}
	nsOp, _, _ := measure(func() {
		g, berr := grid.Build(flat, crossoverRadius)
		if berr != nil {
			err = berr
			return
		}
		if _, _, jerr := grid.Join(g, crossoverRadius, 1); jerr != nil {
			err = jerr
		}
	}, 300*time.Millisecond)
	if err != nil {
		return nil, err
	}
	row.GridBuildMS = float64(nsOp) / 1e6
	nsOp, _, _ = measure(func() {
		if _, _, jerr := grid.FlatJoin(flat, crossoverRadius, 1); jerr != nil {
			err = jerr
		}
	}, 300*time.Millisecond)
	if err != nil {
		return nil, err
	}
	row.FlatBuildMS = float64(nsOp) / 1e6
	return row, nil
}

// highDimUpdate measures per-operation incremental repair at the main
// dimensionality on a reduced cardinality.
func highDimUpdate(cfg Config, ds *object.Dataset, res *HighDimBench) error {
	updN := res.N
	if updN > 2000 {
		updN = 2000
	}
	ops := 100
	if cfg.Quick {
		ops = 20
	}
	pts := ds.Points[:updN]
	res.UpdateN = updN
	res.UpdateRadius = highDimEuclideanRadius
	u, err := disc.NewUpdater(pts, highDimEuclideanRadius,
		disc.WithMetric(disc.Euclidean()), disc.WithParallelism(cfg.parallelism()))
	if err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < ops; i++ {
		if i%2 == 0 {
			// Re-insert an existing direction (a point its cluster already
			// covers — the common embedding-churn case).
			if _, err := u.Insert(append(object.Point(nil), pts[i%updN]...)); err != nil {
				return err
			}
		} else if err := u.Delete(i / 2); err != nil {
			return err
		}
		u.Flush()
	}
	res.UpdateMSOp = float64(time.Since(start).Nanoseconds()) / 1e6 / float64(ops)
	return nil
}

// Suite renders the benchmark in the bench row schema. Radii are per
// join row, so the identity carries none.
func (b *HighDimBench) Suite() Suite {
	return Suite{
		Name:     "highdim",
		Identity: map[string]any{"dataset": b.Dataset, "n": b.N, "dim": b.Dim, "seed": b.Seed, "gomaxprocs": b.GoMaxProcs},
		Info:     map[string]string{"go_version": b.GoVersion},
		Rows:     b.Rows(),
	}
}

// highDimSpeedupFloor is the absolute gate on the join rows: the
// batched coverage-graph build must stay at least this much faster than
// the per-pair scalar build. Being a ratio of two runs on the same
// machine, the floor transfers across hardware, unlike wall-clock.
const highDimSpeedupFloor = 2.0

// Rows lists the benchmark's measurements. Each join's batched-over-
// scalar speedup is gated twice, as a relative floor and by the
// absolute highDimSpeedupFloor; the kernel sweep, the crossover and
// the update cost are recorded.
func (b *HighDimBench) Rows() []Row {
	var rows []Row
	for _, j := range b.Joins {
		rows = append(rows,
			info(j.Metric, "radius", "dist", j.Radius),
			info(j.Metric, "edges", "count", float64(j.Edges)),
			info(j.Metric, "scalar_build_ms", "ms", j.ScalarBuildMS),
			info(j.Metric, "batch_build_ms", "ms", j.BatchBuildMS),
			info(j.Metric, "batch32_build_ms", "ms", j.Batch32BuildMS),
			higher(j.Metric, "speedup", "x", j.Speedup).atLeast(highDimSpeedupFloor),
			info(j.Metric, "speedup32", "x", j.Speedup32),
			info(j.Metric, "select_ms_op", "ms", j.SelectMSOp),
			info(j.Metric, "solution_size", "count", float64(j.SolutionSize)),
		)
	}
	for _, k := range b.Kernels {
		subject := fmt.Sprintf("kernel/%d/%s", k.Dim, k.Metric)
		rows = append(rows,
			info(subject, "scalar_ns_row", "ns", k.ScalarNsRow),
			info(subject, "batch_ns_row", "ns", k.BatchNsRow),
			info(subject, "filter_ns_row", "ns", k.FilterNsRow),
			info(subject, "filter32_ns_row", "ns", k.Filter32NsRow),
		)
	}
	for _, c := range b.Crossover {
		subject := fmt.Sprintf("crossover/%d", c.Dim)
		rows = append(rows,
			info(subject, "grid_build_ms", "ms", c.GridBuildMS),
			info(subject, "flat_build_ms", "ms", c.FlatBuildMS),
		)
	}
	return append(rows,
		info("update", "update_n", "count", float64(b.UpdateN)),
		info("update", "update_radius", "dist", b.UpdateRadius),
		info("update", "update_ms_op", "ms", b.UpdateMSOp),
	)
}

// Tables renders the three sections as plain-text tables (the
// -format=text view).
func (b *HighDimBench) Tables() []*stats.Table {
	joins := stats.NewTable(
		fmt.Sprintf("High-dim joins — %s (n=%d, d=%d, GOMAXPROCS=%d)", b.Dataset, b.N, b.Dim, b.GoMaxProcs),
		"metric", "radius", "edges", "scalar ms", "batch ms", "batch32 ms", "speedup", "speedup32", "select ms/op", "size")
	for _, j := range b.Joins {
		joins.AddRow(j.Metric, j.Radius, j.Edges,
			fmt.Sprintf("%.0f", j.ScalarBuildMS),
			fmt.Sprintf("%.0f", j.BatchBuildMS),
			fmt.Sprintf("%.0f", j.Batch32BuildMS),
			fmt.Sprintf("%.2fx", j.Speedup),
			fmt.Sprintf("%.2fx", j.Speedup32),
			fmt.Sprintf("%.2f", j.SelectMSOp),
			j.SolutionSize)
	}
	kern := stats.NewTable("Kernel throughput (ns per candidate row)",
		"dim", "metric", "scalar", "batch", "filter", "filter32")
	for _, k := range b.Kernels {
		kern.AddRow(k.Dim, k.Metric,
			fmt.Sprintf("%.1f", k.ScalarNsRow),
			fmt.Sprintf("%.1f", k.BatchNsRow),
			fmt.Sprintf("%.1f", k.FilterNsRow),
			fmt.Sprintf("%.1f", k.Filter32NsRow))
	}
	cross := stats.NewTable(
		fmt.Sprintf("Grid vs flat join (uniform, euclidean, r=%g) — update repair: n=%d, %.2f ms/op", crossoverRadius, b.UpdateN, b.UpdateMSOp),
		"dim", "grid ms", "flat ms", "winner")
	for _, c := range b.Crossover {
		winner := "grid"
		if c.FlatBuildMS < c.GridBuildMS {
			winner = "flat"
		}
		cross.AddRow(c.Dim,
			fmt.Sprintf("%.1f", c.GridBuildMS),
			fmt.Sprintf("%.1f", c.FlatBuildMS),
			winner)
	}
	return []*stats.Table{joins, kern, cross}
}
