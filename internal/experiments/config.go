// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 6) plus its in-text ablation claims. Each runner
// regenerates one artefact as plain-text tables: the same rows/series the
// paper plots. See DESIGN.md for the experiment index and EXPERIMENTS.md
// for paper-vs-measured results.
package experiments

import (
	"fmt"
	"io"

	"github.com/discdiversity/disc/internal/core"
	"github.com/discdiversity/disc/internal/dataset"
	"github.com/discdiversity/disc/internal/mtree"
	"github.com/discdiversity/disc/internal/object"
	"github.com/discdiversity/disc/internal/stats"
)

// Config holds the shared experiment parameters (paper Table 2 defaults).
type Config struct {
	// Seed drives all dataset generation.
	Seed uint64
	// N is the synthetic dataset cardinality (paper default 10000).
	N int
	// Dim is the synthetic dataset dimensionality (paper default 2).
	Dim int
	// Capacity is the M-tree node capacity (paper default 50).
	Capacity int
	// Parallelism is the worker count for the parallel coverage-graph
	// build in the engines experiment (0 = GOMAXPROCS).
	Parallelism int
	// Radius overrides the query radius for single-radius experiments
	// (perf); 0 selects the middle of the dataset's standard sweep.
	Radius float64
	// Format selects the output encoding where an experiment supports
	// more than one ("text" is the default; perf also accepts "json").
	Format string
	// Quick trims sweeps for fast runs (benchmarks, smoke tests).
	Quick bool
	// Out receives the rendered tables; nil discards them.
	Out io.Writer
}

// DefaultConfig mirrors the paper's Table 2.
func DefaultConfig() Config {
	return Config{Seed: 42, N: 10000, Dim: 2, Capacity: 50}
}

func (c Config) n() int {
	if c.N <= 0 {
		return 10000
	}
	if c.Quick && c.N > 2000 {
		return 2000
	}
	return c.N
}

func (c Config) dim() int {
	if c.Dim <= 0 {
		return 2
	}
	return c.Dim
}

func (c Config) capacity() int {
	if c.Capacity <= 0 {
		return 50
	}
	return c.Capacity
}

func (c Config) out() io.Writer {
	if c.Out == nil {
		return io.Discard
	}
	return c.Out
}

// Radii returns the per-dataset radius sweep the paper uses (Table 3 and
// Figures 7-8).
func Radii(datasetName string) []float64 {
	switch datasetName {
	case "cities":
		return []float64{0.001, 0.0025, 0.005, 0.0075, 0.01, 0.0125, 0.015}
	case "cameras":
		return []float64{1, 2, 3, 4, 5, 6}
	default:
		return []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07}
	}
}

func (c Config) radii(datasetName string) []float64 {
	rs := Radii(datasetName)
	if c.Quick {
		// Keep endpoints and the middle.
		return []float64{rs[0], rs[len(rs)/2], rs[len(rs)-1]}
	}
	return rs
}

// workload bundles the prepared data of one experiment run.
type workload struct {
	name   string
	ds     *object.Dataset
	metric object.Metric
}

func (c Config) load(datasetName string) (*workload, error) {
	n := c.n()
	if c.Quick && datasetName == "cities" {
		// The cities stand-in has fixed cardinality; quick mode
		// subsamples it deterministically.
		full := dataset.Cities(c.Seed)
		ids := make([]int, 0, full.Len()/3)
		for i := 0; i < full.Len(); i += 3 {
			ids = append(ids, i)
		}
		return &workload{name: datasetName, ds: full.Subset(ids), metric: object.Euclidean{}}, nil
	}
	ds, m, err := dataset.ByName(datasetName, n, c.dim(), c.Seed)
	if err != nil {
		return nil, err
	}
	return &workload{name: datasetName, ds: ds, metric: m}, nil
}

func (c Config) treeConfig(m object.Metric) mtree.Config {
	return mtree.Config{Capacity: c.capacity(), Metric: m, Policy: mtree.MinOverlap, Seed: c.Seed}
}

// buildEngine constructs a fresh M-tree engine for a run; withCounts
// additionally collects |N_r| during the build (the paper's Greedy-DisC
// initialisation).
func (c Config) buildEngine(w *workload, withCounts bool, r float64) (*core.TreeEngine, error) {
	if withCounts {
		return core.BuildTreeEngineWithCounts(c.treeConfig(w.metric), w.ds.Points, r)
	}
	return core.BuildTreeEngine(c.treeConfig(w.metric), w.ds.Points)
}

// algoRun is one (algorithm, radius) measurement.
type algoRun struct {
	algorithm string
	radius    float64
	size      int
	accesses  int64
}

// runner executes a named algorithm on a fresh engine (with build-time
// counts at the run's radius when wantCounts is set) and reports the
// solution and cost.
type runner struct {
	name string
	// wantCounts marks greedy variants that use build-time counts.
	wantCounts bool
	run        func(e core.Engine, r float64) *core.Solution
}

// The algorithm roster of Table 3 / Figures 7-8 with the paper's labels.
var (
	runBasic = runner{"B-DisC", false, func(e core.Engine, r float64) *core.Solution {
		return core.BasicDisC(e, r, false)
	}}
	runBasicPruned = runner{"B-DisC (P)", false, func(e core.Engine, r float64) *core.Solution {
		return core.BasicDisC(e, r, true)
	}}
	runGreyGreedy = runner{"Gr-G-DisC", true, func(e core.Engine, r float64) *core.Solution {
		return core.GreedyDisC(e, r, core.GreedyOptions{Update: core.UpdateGrey})
	}}
	runGreyGreedyPruned = runner{"Gr-G-DisC (P)", true, func(e core.Engine, r float64) *core.Solution {
		return core.GreedyDisC(e, r, core.GreedyOptions{Update: core.UpdateGrey, Pruned: true})
	}}
	runWhiteGreedyPruned = runner{"Wh-G-DisC (P)", true, func(e core.Engine, r float64) *core.Solution {
		return core.GreedyDisC(e, r, core.GreedyOptions{Update: core.UpdateWhite, Pruned: true})
	}}
	runLazyGreyPruned = runner{"L-Gr-G-DisC (P)", true, func(e core.Engine, r float64) *core.Solution {
		return core.GreedyDisC(e, r, core.GreedyOptions{Update: core.UpdateLazyGrey, Pruned: true})
	}}
	runLazyWhitePruned = runner{"L-Wh-G-DisC (P)", true, func(e core.Engine, r float64) *core.Solution {
		return core.GreedyDisC(e, r, core.GreedyOptions{Update: core.UpdateLazyWhite, Pruned: true})
	}}
	runGreedyC = runner{"G-C", true, func(e core.Engine, r float64) *core.Solution {
		return core.GreedyC(e, r)
	}}
	runFastC = runner{"Fast-C", true, func(e core.Engine, r float64) *core.Solution {
		return core.FastC(e, r)
	}}
)

// execute runs r on a fresh engine for the workload and returns the
// measurement.
func (c Config) execute(w *workload, rn runner, r float64) (algoRun, *core.Solution, error) {
	e, err := c.buildEngine(w, rn.wantCounts, r)
	if err != nil {
		return algoRun{}, nil, err
	}
	s := rn.run(e, r)
	return algoRun{algorithm: rn.name, radius: r, size: s.Size(), accesses: s.Accesses}, s, nil
}

func printTables(out io.Writer, tables ...*stats.Table) {
	for _, t := range tables {
		t.Fprint(out)
		fmt.Fprintln(out)
	}
}
