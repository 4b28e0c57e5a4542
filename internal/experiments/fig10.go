package experiments

import (
	"fmt"

	"github.com/discdiversity/disc/internal/core"
	"github.com/discdiversity/disc/internal/mtree"
	"github.com/discdiversity/disc/internal/stats"
)

// fig10Policies are the four splitting policies the paper uses to build
// trees of increasing fat-factor: MinOverlap (lowest), max-distance
// promotion, balanced partitioning and random promotion (highest).
var fig10Policies = []mtree.SplitPolicy{
	mtree.MinOverlap,
	{Promote: mtree.PromoteMaxPair, Partition: mtree.PartitionClosest},
	{Promote: mtree.PromoteMaxPair, Partition: mtree.PartitionBalanced},
	{Promote: mtree.PromoteRandom, Partition: mtree.PartitionBalanced},
}

// Fig10 reproduces Figure 10 for one synthetic dataset ("uniform" or
// "clustered"): Greedy-DisC node accesses across large radii on M-trees
// built with different splitting policies, labelled by their measured
// fat-factor. Tree characteristics do not change which objects are
// selected — only the access cost — which the runner verifies.
func Fig10(cfg Config, datasetName string) (*stats.Table, error) {
	w, err := cfg.load(datasetName)
	if err != nil {
		return nil, err
	}
	radii := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	if cfg.Quick {
		radii = []float64{0.1, 0.5, 0.9}
	}

	var series []*stats.Series
	var refSizes []int
	for _, pol := range fig10Policies {
		tcfg := cfg.treeConfig(w.metric)
		tcfg.Policy = pol
		tree, _, err := mtree.Build(tcfg, w.ds.Points)
		if err != nil {
			return nil, err
		}
		fat := tree.FatFactor()
		s := &stats.Series{Name: fmt.Sprintf("f=%.3f", fat)}
		for ri, r := range radii {
			e := core.NewTreeEngine(tree)
			sol := core.GreedyDisC(e, r, core.GreedyOptions{Update: core.UpdateGrey, Pruned: true})
			s.Add(r, float64(sol.Accesses))
			if len(refSizes) <= ri {
				refSizes = append(refSizes, sol.Size())
			} else if refSizes[ri] != sol.Size() {
				return nil, fmt.Errorf("fig10: policy %v changed the solution size at r=%g (%d vs %d)",
					pol, r, sol.Size(), refSizes[ri])
			}
		}
		series = append(series, s)
	}
	tab := stats.SeriesTable(fmt.Sprintf("Figure 10 — node accesses by fat-factor (%s)", datasetName), "radius", series...)
	printTables(cfg.out(), tab)
	return tab, nil
}
