package experiments

import (
	"fmt"

	"github.com/discdiversity/disc/internal/core"
	"github.com/discdiversity/disc/internal/stats"
)

// zoomRadiiIn returns the descending radius ladder of Figures 11-13: each
// zoom-in solution for r' is adapted from the solution for the
// immediately larger radius.
func zoomRadiiIn(datasetName string, quick bool) []float64 {
	var rs []float64
	if datasetName == "cities" {
		rs = []float64{0.01, 0.0075, 0.005, 0.0025, 0.001}
	} else {
		rs = []float64{0.07, 0.06, 0.05, 0.04, 0.03, 0.02}
	}
	if quick {
		rs = rs[:3]
	}
	return rs
}

// zoomRadiiOut returns the ascending ladder of Figures 14-16.
func zoomRadiiOut(datasetName string, quick bool) []float64 {
	var rs []float64
	if datasetName == "cities" {
		rs = []float64{0.0025, 0.005, 0.0075, 0.01, 0.0125}
	} else {
		rs = []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06}
	}
	if quick {
		rs = rs[:3]
	}
	return rs
}

// ZoomIn reproduces Figures 11, 12 and 13 for one dataset ("clustered" or
// "cities"): solution size, node accesses and Jaccard distance of Zoom-In
// and Greedy-Zoom-In versus recomputing with Greedy-DisC from scratch.
// For each step the zooming algorithms adapt the Greedy-DisC solution of
// the immediately larger radius; the Jaccard distance is measured against
// that previous solution (lower = closer to what the user already saw).
func ZoomIn(cfg Config, datasetName string) ([]*stats.Table, error) {
	w, err := cfg.load(datasetName)
	if err != nil {
		return nil, err
	}
	radii := zoomRadiiIn(datasetName, cfg.Quick)

	sizeS := []*stats.Series{{Name: "Greedy-DisC"}, {Name: "Zoom-In"}, {Name: "Greedy-Zoom-In"}}
	accS := []*stats.Series{{Name: "Greedy-DisC"}, {Name: "Zoom-In"}, {Name: "Greedy-Zoom-In"}}
	jacS := []*stats.Series{{Name: "vs Greedy-DisC"}, {Name: "vs Zoom-In"}, {Name: "vs Greedy-Zoom-In"}}

	for step := 1; step < len(radii); step++ {
		rPrev, rNew := radii[step-1], radii[step]

		// Previous solution at the larger radius (what the user saw).
		_, prev, err := cfg.execute(w, runGreyGreedyPruned, rPrev)
		if err != nil {
			return nil, err
		}
		// From scratch at the new radius.
		scratchRun, scratch, err := cfg.execute(w, runGreyGreedyPruned, rNew)
		if err != nil {
			return nil, err
		}
		// Zooming algorithms, both adapting prev. Each gets a fresh
		// engine; ZoomIn does not charge its post-processing pass,
		// matching the paper's attribution of that pass to the
		// construction of S^r.
		measureZoom := func(greedy bool) (algoRun, *core.Solution, error) {
			e, err := cfg.buildEngine(w, false, rNew)
			if err != nil {
				return algoRun{}, nil, err
			}
			z, err := core.ZoomIn(e, prev, rNew, greedy, true)
			if err != nil {
				return algoRun{}, nil, err
			}
			return algoRun{radius: rNew, size: z.Size(), accesses: z.Accesses}, z, nil
		}
		plainRun, plain, err := measureZoom(false)
		if err != nil {
			return nil, err
		}
		greedyRun, greedyZ, err := measureZoom(true)
		if err != nil {
			return nil, err
		}

		sizeS[0].Add(rNew, float64(scratchRun.size))
		sizeS[1].Add(rNew, float64(plainRun.size))
		sizeS[2].Add(rNew, float64(greedyRun.size))
		accS[0].Add(rNew, float64(scratchRun.accesses))
		accS[1].Add(rNew, float64(plainRun.accesses))
		accS[2].Add(rNew, float64(greedyRun.accesses))
		jacS[0].Add(rNew, core.Jaccard(prev, scratch))
		jacS[1].Add(rNew, core.Jaccard(prev, plain))
		jacS[2].Add(rNew, core.Jaccard(prev, greedyZ))
	}

	tabs := []*stats.Table{
		stats.SeriesTable(fmt.Sprintf("Figure 11 — zoom-in solution size (%s)", datasetName), "r'", sizeS...),
		stats.SeriesTable(fmt.Sprintf("Figure 12 — zoom-in node accesses (%s)", datasetName), "r'", accS...),
		stats.SeriesTable(fmt.Sprintf("Figure 13 — zoom-in Jaccard distance to S^r (%s)", datasetName), "r'", jacS...),
	}
	printTables(cfg.out(), tabs...)
	return tabs, nil
}

// ZoomOut reproduces Figures 14, 15 and 16 for one dataset: solution
// size, node accesses and Jaccard distance of Zoom-Out and the three
// Greedy-Zoom-Out variants versus Greedy-DisC from scratch.
func ZoomOut(cfg Config, datasetName string) ([]*stats.Table, error) {
	w, err := cfg.load(datasetName)
	if err != nil {
		return nil, err
	}
	radii := zoomRadiiOut(datasetName, cfg.Quick)

	names := []string{"Greedy-DisC", "Zoom-Out", "G-Z-Out (a)", "G-Z-Out (b)", "G-Z-Out (c)"}
	variants := []core.ZoomOutVariant{0: core.ZoomOutPlain, 1: core.ZoomOutGreedyA, 2: core.ZoomOutGreedyB, 3: core.ZoomOutGreedyC}
	sizeS := make([]*stats.Series, len(names))
	accS := make([]*stats.Series, len(names))
	jacS := make([]*stats.Series, len(names))
	for i, n := range names {
		sizeS[i] = &stats.Series{Name: n}
		accS[i] = &stats.Series{Name: n}
		jacS[i] = &stats.Series{Name: "vs " + n}
	}

	for step := 1; step < len(radii); step++ {
		rPrev, rNew := radii[step-1], radii[step]
		_, prev, err := cfg.execute(w, runGreyGreedyPruned, rPrev)
		if err != nil {
			return nil, err
		}
		scratchRun, scratch, err := cfg.execute(w, runGreyGreedyPruned, rNew)
		if err != nil {
			return nil, err
		}
		sizeS[0].Add(rNew, float64(scratchRun.size))
		accS[0].Add(rNew, float64(scratchRun.accesses))
		jacS[0].Add(rNew, core.Jaccard(prev, scratch))

		for vi, v := range variants {
			e, err := cfg.buildEngine(w, false, rNew)
			if err != nil {
				return nil, err
			}
			z, err := core.ZoomOut(e, prev, rNew, v)
			if err != nil {
				return nil, err
			}
			sizeS[vi+1].Add(rNew, float64(z.Size()))
			accS[vi+1].Add(rNew, float64(z.Accesses))
			jacS[vi+1].Add(rNew, core.Jaccard(prev, z))
		}
	}

	tabs := []*stats.Table{
		stats.SeriesTable(fmt.Sprintf("Figure 14 — zoom-out solution size (%s)", datasetName), "r'", sizeS...),
		stats.SeriesTable(fmt.Sprintf("Figure 15 — zoom-out node accesses (%s)", datasetName), "r'", accS...),
		stats.SeriesTable(fmt.Sprintf("Figure 16 — zoom-out Jaccard distance to S^r (%s)", datasetName), "r'", jacS...),
	}
	printTables(cfg.out(), tabs...)
	return tabs, nil
}
