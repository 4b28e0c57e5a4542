package experiments

import (
	"fmt"

	"github.com/discdiversity/disc/internal/core"
	"github.com/discdiversity/disc/internal/object"
	"github.com/discdiversity/disc/internal/stats"
)

// Capacity reproduces the in-text claim that doubling the M-tree node
// capacity reduces node accesses by roughly 45%: Greedy-DisC accesses on
// the clustered dataset for capacities 25, 50 and 100.
func Capacity(cfg Config) (*stats.Table, error) {
	w, err := cfg.load("clustered")
	if err != nil {
		return nil, err
	}
	radii := cfg.radii("clustered")
	var series []*stats.Series
	for _, capacity := range []int{25, 50, 100} {
		c := cfg
		c.Capacity = capacity
		s := &stats.Series{Name: fmt.Sprintf("capacity=%d", capacity)}
		for _, r := range radii {
			run, _, err := c.execute(w, runGreyGreedyPruned, r)
			if err != nil {
				return nil, err
			}
			s.Add(r, float64(run.accesses))
		}
		series = append(series, s)
	}
	tab := stats.SeriesTable("Ablation — node accesses vs node capacity (clustered)", "radius", series...)
	printTables(cfg.out(), tab)
	return tab, nil
}

// FastCAblation reproduces the in-text Fast-C claims: it needs fewer node
// accesses than Greedy-C while computing similar-sized solutions with a
// larger share of independent (pairwise dissimilar) objects.
func FastCAblation(cfg Config, datasetName string) (*stats.Table, error) {
	w, err := cfg.load(datasetName)
	if err != nil {
		return nil, err
	}
	radii := cfg.radii(datasetName)
	tab := stats.NewTable(
		fmt.Sprintf("Ablation — Greedy-C vs Fast-C (%s)", datasetName),
		"radius", "G-C size", "Fast-C size", "G-C accesses", "Fast-C accesses", "G-C indep%", "Fast-C indep%")
	for _, r := range radii {
		gcRun, gcSol, err := cfg.execute(w, runGreedyC, r)
		if err != nil {
			return nil, err
		}
		fcRun, fcSol, err := cfg.execute(w, runFastC, r)
		if err != nil {
			return nil, err
		}
		tab.AddRow(r, gcRun.size, fcRun.size, gcRun.accesses, fcRun.accesses,
			independentShare(w, gcSol, r), independentShare(w, fcSol, r))
	}
	printTables(cfg.out(), tab)
	return tab, nil
}

// independentShare returns the percentage of selected objects with no
// other selected object within r.
func independentShare(w *workload, s *core.Solution, r float64) float64 {
	if s.Size() == 0 {
		return 100
	}
	independent := 0
	for _, a := range s.IDs {
		ok := true
		for _, b := range s.IDs {
			if a != b && w.metric.Dist(w.ds.Points[a], w.ds.Points[b]) <= r {
				ok = false
				break
			}
		}
		if ok {
			independent++
		}
	}
	return 100 * float64(independent) / float64(s.Size())
}

// bottomUpBasicEngine overrides the neighbour query to use bottom-up
// range queries, turning Basic-DisC into its bottom-up variant for the
// ablation below.
type bottomUpBasicEngine struct{ *core.TreeEngine }

func (b bottomUpBasicEngine) NeighborsAppend(dst []object.Neighbor, id int, r float64, run *core.Run) []object.Neighbor {
	return b.NeighborsBottomUpAppend(dst, id, r, false, run)
}

// BottomUp reproduces the in-text claim that bottom-up range queries save
// at most ~5% of node accesses over top-down ones: Basic-DisC run both
// ways across the radius sweep.
func BottomUp(cfg Config, datasetName string) (*stats.Table, error) {
	w, err := cfg.load(datasetName)
	if err != nil {
		return nil, err
	}
	radii := cfg.radii(datasetName)
	tab := stats.NewTable(
		fmt.Sprintf("Ablation — top-down vs bottom-up range queries, Basic-DisC (%s)", datasetName),
		"radius", "top-down", "bottom-up", "saving%")
	for _, r := range radii {
		td, _, err := cfg.execute(w, runBasic, r)
		if err != nil {
			return nil, err
		}
		e, err := cfg.buildEngine(w, false, r)
		if err != nil {
			return nil, err
		}
		sol := core.BasicDisC(bottomUpBasicEngine{e}, r, false)
		saving := 100 * (1 - float64(sol.Accesses)/float64(td.accesses))
		tab.AddRow(r, td.accesses, sol.Accesses, saving)
	}
	printTables(cfg.out(), tab)
	return tab, nil
}

// BuildInit reproduces the in-text claim that computing neighbourhood
// sizes while building the M-tree reduces node accesses by up to 45%
// compared to initialising them with per-object range queries after the
// build. Both totals include every access from an empty tree to a
// finished Greedy-DisC run.
func BuildInit(cfg Config, datasetName string) (*stats.Table, error) {
	w, err := cfg.load(datasetName)
	if err != nil {
		return nil, err
	}
	radii := cfg.radii(datasetName)
	tab := stats.NewTable(
		fmt.Sprintf("Ablation — count initialisation during vs after build (%s)", datasetName),
		"radius", "during-build", "after-build", "saving%")
	for _, r := range radii {
		during, err := cfg.buildEngine(w, true, r)
		if err != nil {
			return nil, err
		}
		sol := core.GreedyDisC(during, r, core.GreedyOptions{Update: core.UpdateGrey, Pruned: true})
		duringTotal := during.BuildCost() + sol.Accesses // build + init + run

		after, err := cfg.buildEngine(w, false, r)
		if err != nil {
			return nil, err
		}
		sol = core.GreedyDisC(after, r, core.GreedyOptions{Update: core.UpdateGrey, Pruned: true})
		afterTotal := after.BuildCost() + sol.Accesses // build + n queries + run

		saving := 100 * (1 - float64(duringTotal)/float64(afterTotal))
		tab.AddRow(r, duringTotal, afterTotal, saving)
	}
	printTables(cfg.out(), tab)
	return tab, nil
}
