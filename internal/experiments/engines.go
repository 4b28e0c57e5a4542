package experiments

import (
	"fmt"
	"runtime"
	"time"

	"github.com/discdiversity/disc/internal/core"
	"github.com/discdiversity/disc/internal/stats"
)

// Engines compares every index backend on the same workload and
// algorithm — the experiment the paper's future work asks for ("index
// structures beyond the M-tree"). For each radius of the standard sweep
// it runs pruned Grey-Greedy-DisC on the flat scan, the M-tree and the
// parallel coverage graph, reporting
// solution size (identical across engines by construction), index build
// time, selection wall time and the engine's access measure. The graph
// engine's build uses cfg.Parallelism workers (0 = GOMAXPROCS).
func Engines(cfg Config, datasetName string) (*stats.Table, error) {
	w, err := cfg.load(datasetName)
	if err != nil {
		return nil, err
	}
	pts := w.ds.Points
	workers := cfg.parallelism()
	tab := stats.NewTable(
		fmt.Sprintf("Index backends — %s (n=%d, Greedy-DisC pruned, %d workers)", datasetName, len(pts), workers),
		"engine", "r", "size", "build ms", "select ms", "accesses")

	builders := []struct {
		name  string
		build func(r float64) (core.Engine, error)
		// rebuild, when non-nil, marks builders whose index depends on
		// the query radius; it adapts the engine to the next radius of
		// the sweep (the same path Diversifier takes), exercising the
		// radius-reuse fast paths. The others are built once and reused:
		// engines keep no per-run state.
		rebuild func(e core.Engine, r float64) (core.Engine, error)
	}{
		{"flat", func(float64) (core.Engine, error) { return core.NewFlatEngine(pts, w.metric) }, nil},
		{"mtree", func(float64) (core.Engine, error) {
			return core.BuildTreeEngine(cfg.treeConfig(w.metric), pts)
		}, nil},
		{"graph", func(r float64) (core.Engine, error) {
			return core.BuildParallelGraphEngine(pts, w.metric, r, workers)
		}, func(e core.Engine, r float64) (core.Engine, error) {
			// Radii up to the ceiling are row-prefix views of the
			// graph; only a larger one joins again.
			if g := e.(*core.ParallelGraphEngine); r > g.Radius() {
				return g.Rebuild(r, 0)
			}
			return e, nil
		}},
	}

	for _, b := range builders {
		var e core.Engine
		var buildMS time.Duration
		for _, r := range cfg.radii(datasetName) {
			switch {
			case e == nil:
				buildStart := time.Now()
				var err error
				e, err = b.build(r)
				if err != nil {
					return nil, err
				}
				buildMS = time.Since(buildStart)
			case b.rebuild != nil:
				buildStart := time.Now()
				var err error
				e, err = b.rebuild(e, r)
				if err != nil {
					return nil, err
				}
				buildMS = time.Since(buildStart)
			}
			selStart := time.Now()
			s := core.GreedyDisC(e, r, core.GreedyOptions{Update: core.UpdateGrey, Pruned: true})
			selMS := time.Since(selStart)
			tab.AddRow(b.name, r, s.Size(),
				fmt.Sprintf("%.1f", float64(buildMS.Microseconds())/1000),
				fmt.Sprintf("%.1f", float64(selMS.Microseconds())/1000),
				s.Accesses)
		}
	}
	printTables(cfg.out(), tab)
	return tab, nil
}

// parallelism returns the configured graph-build worker count, defaulting
// to all cores.
func (c Config) parallelism() int {
	if c.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Parallelism
}
