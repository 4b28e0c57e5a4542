package experiments

import (
	"fmt"
	"runtime"
	"time"

	"github.com/discdiversity/disc/internal/core"
	"github.com/discdiversity/disc/internal/object"
	"github.com/discdiversity/disc/internal/stats"
)

// PerfEngine is one engine's measurement in a performance snapshot: a
// repeated index build (wall time per op — the metric the bench guard
// diffs alongside the selections), a repeated pruned Greedy-DisC
// selection in both execution modes (global, and the component-mode run
// over the materialised adjacency — SelectComponents* rows) and the
// steady-state reusable-buffer neighbour query.
type PerfEngine struct {
	Engine               string
	BuildNsOp            int64
	BuildMS              float64
	SelectNsOp           int64
	SelectMSOp           float64
	SelectAllocsOp       int64
	SelectBytesOp        int64
	SelectComponentsNsOp int64
	SelectComponentsMSOp float64
	NeighborsNsOp        int64
	NeighborsAllocsOp    int64
	SolutionSize         int
	Accesses             int64
}

// PerfSnapshot is the machine-readable result of the "perf" experiment;
// its -format=json rendering (Suite) is the BENCH_PR5.json baseline.
type PerfSnapshot struct {
	Dataset    string
	N          int
	Dim        int
	Radius     float64
	Seed       uint64
	GoMaxProcs int
	GoVersion  string
	Algorithm  string
	// Components and LargestComponent describe the r-coverage graph's
	// connected-component structure at Radius, counted on the graph
	// engine (componentStats); they describe the workload only.
	Components       int
	LargestComponent int
	Engines          []PerfEngine

	// Telemetry is the in-process metrics view over the whole snapshot
	// run: selection and grid-build histogram quantiles aggregated
	// across the measured engines (the instrumented counterpart of the
	// per-engine wall-clock rows above).
	Telemetry *ExperimentTelemetry
}

// measure runs f repeatedly until budget elapses (always at least once)
// and reports per-iteration wall time, heap allocations and bytes. A
// deliberate fixed-budget stand-in for testing.Benchmark (which would
// also work in a non-test binary): the snapshot's total runtime stays
// bounded and deterministic even when one engine is orders of magnitude
// slower than another, at the cost of slightly coarser numbers than
// `go test -bench` calibration.
func measure(f func(), budget time.Duration) (nsOp, allocsOp, bytesOp int64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	iters := int64(0)
	for {
		f()
		iters++
		if time.Since(start) >= budget {
			break
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return elapsed.Nanoseconds() / iters,
		int64(m1.Mallocs-m0.Mallocs) / iters,
		int64(m1.TotalAlloc-m0.TotalAlloc) / iters
}

// perfRadius picks the snapshot radius: the explicit cfg.Radius when
// set, otherwise the middle of the dataset's standard sweep.
func (c Config) perfRadius(datasetName string) float64 {
	if c.Radius > 0 {
		return c.Radius
	}
	rs := Radii(datasetName)
	return rs[len(rs)/2]
}

// Perf measures all three index backends on the same pruned Greedy-DisC
// workload and returns the snapshot. The linear-scan engine is skipped
// above 20k objects, where a single quadratic selection would dominate
// the whole snapshot's runtime; the suite then records the two indexed
// engines. Builds are measured like selections (repeated under a fixed
// budget), since build time is a guarded metric of the snapshot.
func Perf(cfg Config, datasetName string) (*PerfSnapshot, error) {
	w, err := cfg.load(datasetName)
	if err != nil {
		return nil, err
	}
	pts := w.ds.Points
	workers := cfg.parallelism()
	r := cfg.perfRadius(datasetName)
	snap := &PerfSnapshot{
		Dataset:    datasetName,
		N:          len(pts),
		Dim:        w.ds.Dim(),
		Radius:     r,
		Seed:       cfg.Seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Algorithm:  "Grey-Greedy-DisC (Pruned)",
	}

	probe := newTelemetryProbe()
	builders := []struct {
		name  string
		build func() (core.Engine, error)
	}{
		{"flat", func() (core.Engine, error) { return core.NewFlatEngine(pts, w.metric) }},
		{"mtree", func() (core.Engine, error) {
			return core.BuildTreeEngine(cfg.treeConfig(w.metric), pts)
		}},
		{"graph", func() (core.Engine, error) {
			return core.BuildParallelGraphEngine(pts, w.metric, r, workers)
		}},
	}

	for _, b := range builders {
		if b.name == "flat" && len(pts) > 20000 {
			continue
		}
		// Surface build errors on a first build before spending the
		// measurement budget; the measured rebuilds cannot fail after
		// one build succeeded (same inputs).
		e, err := b.build()
		if err != nil {
			return nil, fmt.Errorf("experiments: perf: %s: %w", b.name, err)
		}
		pe := PerfEngine{Engine: b.name}
		pe.BuildNsOp, _, _ = measure(func() {
			e, _ = b.build()
		}, 500*time.Millisecond)
		pe.BuildMS = float64(pe.BuildNsOp) / 1e6

		var sol *core.Solution
		pe.SelectNsOp, pe.SelectAllocsOp, pe.SelectBytesOp = measure(func() {
			sol = core.GreedyDisC(e, r, core.GreedyOptions{Update: core.UpdateGrey, Pruned: true})
		}, 2*time.Second)
		pe.SelectMSOp = float64(pe.SelectNsOp) / 1e6
		pe.SolutionSize = sol.Size()
		pe.Accesses = sol.Accesses

		// Component-mode selection, same workload: the greedy over the
		// materialised adjacency. The graph engine serves its own CSR;
		// engines without one pay their per-selection query pass inside
		// the loop.
		var csol *core.Solution
		pe.SelectComponentsNsOp, _, _ = measure(func() {
			csol = core.GreedyDisCComponents(e, r, core.GreedyOptions{Update: core.UpdateGrey, Pruned: true})
		}, 2*time.Second)
		pe.SelectComponentsMSOp = float64(pe.SelectComponentsNsOp) / 1e6
		if csol.Size() != sol.Size() {
			return nil, fmt.Errorf("experiments: perf: %s: component selection size %d differs from global %d", b.name, csol.Size(), sol.Size())
		}
		if b.name == "graph" {
			snap.Components, snap.LargestComponent = componentStats(e, r)
		}

		buf := make([]object.Neighbor, 0, 4096)
		id := 0
		var run core.Run
		pe.NeighborsNsOp, pe.NeighborsAllocsOp, _ = measure(func() {
			buf = e.NeighborsAppend(buf[:0], id, r, &run)
			id = (id + 1) % len(pts)
		}, 200*time.Millisecond)

		snap.Engines = append(snap.Engines, pe)
	}
	snap.Telemetry = probe.Report()
	return snap, nil
}

// componentStats counts the connected components of the r-coverage
// graph and the size of the largest, by one depth-first pass over e's
// range queries. It describes the workload only: no selection needs
// the decomposition.
func componentStats(e core.Engine, r float64) (count, largest int) {
	seen := make([]bool, e.Size())
	var stack []int
	var buf []object.Neighbor
	var run core.Run
	for root := range seen {
		if seen[root] {
			continue
		}
		seen[root] = true
		stack = append(stack[:0], root)
		size := 0
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			buf = e.NeighborsAppend(buf[:0], u, r, &run)
			for _, nb := range buf {
				if !seen[nb.ID] {
					seen[nb.ID] = true
					stack = append(stack, nb.ID)
				}
			}
		}
		count++
		largest = max(largest, size)
	}
	return count, largest
}

// Suite renders the snapshot in the bench row schema.
func (s *PerfSnapshot) Suite() Suite {
	return Suite{
		Name:     "perf",
		Identity: map[string]any{"dataset": s.Dataset, "n": s.N, "dim": s.Dim, "radius": s.Radius, "seed": s.Seed, "gomaxprocs": s.GoMaxProcs},
		Info:     map[string]string{"go_version": s.GoVersion, "algorithm": s.Algorithm},
		Rows:     s.Rows(),
	}
}

// Rows lists the snapshot's measurements. Per engine, the build and
// both selection modes are gated as ceilings; the rest is recorded.
func (s *PerfSnapshot) Rows() []Row {
	rows := []Row{
		info("workload", "components", "count", float64(s.Components)),
		info("workload", "largest_component", "count", float64(s.LargestComponent)),
	}
	for _, e := range s.Engines {
		rows = append(rows,
			info(e.Engine, "build_ns_op", "ns", float64(e.BuildNsOp)),
			lower(e.Engine, "build_ms", "ms", e.BuildMS),
			info(e.Engine, "select_ns_op", "ns", float64(e.SelectNsOp)),
			lower(e.Engine, "select_ms_op", "ms", e.SelectMSOp),
			info(e.Engine, "select_allocs_op", "count", float64(e.SelectAllocsOp)),
			info(e.Engine, "select_bytes_op", "B", float64(e.SelectBytesOp)),
			info(e.Engine, "select_components_ns_op", "ns", float64(e.SelectComponentsNsOp)),
			lower(e.Engine, "select_components_ms_op", "ms", e.SelectComponentsMSOp),
			info(e.Engine, "neighbors_ns_op", "ns", float64(e.NeighborsNsOp)),
			info(e.Engine, "neighbors_allocs_op", "count", float64(e.NeighborsAllocsOp)),
			info(e.Engine, "solution_size", "count", float64(e.SolutionSize)),
			info(e.Engine, "accesses", "count", float64(e.Accesses)),
		)
	}
	return append(rows, telemetryRows(s.Telemetry)...)
}

// Table renders the snapshot as a plain-text table (the -format=text
// view of the perf experiment).
func (s *PerfSnapshot) Table() *stats.Table {
	tab := stats.NewTable(
		fmt.Sprintf("Perf snapshot — %s (n=%d, r=%g, %s, GOMAXPROCS=%d, %d components, largest %d)",
			s.Dataset, s.N, s.Radius, s.Algorithm, s.GoMaxProcs, s.Components, s.LargestComponent),
		"engine", "build ms", "select ms/op", "cmp-select ms/op", "allocs/op", "B/op", "nbr ns/op", "nbr allocs/op", "size", "accesses")
	for _, e := range s.Engines {
		tab.AddRow(e.Engine,
			fmt.Sprintf("%.1f", e.BuildMS),
			fmt.Sprintf("%.2f", e.SelectMSOp),
			fmt.Sprintf("%.2f", e.SelectComponentsMSOp),
			e.SelectAllocsOp, e.SelectBytesOp,
			e.NeighborsNsOp, e.NeighborsAllocsOp,
			e.SolutionSize, e.Accesses)
	}
	return tab
}
