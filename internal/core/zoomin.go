package core

import (
	"fmt"
	"math"
)

// ZoomIn adapts an existing solution to a smaller radius rNew < prev.Radius
// (Section 3.1). The previous representatives are all kept (Lemma 5:
// S^r ⊆ S^r'); objects no longer covered at the smaller radius turn white
// and are covered incrementally. With greedy set, white objects are
// selected by descending white-neighbourhood size (Greedy-Zoom-In,
// Algorithm 2); otherwise in scan order (Zoom-In).
//
// Note on Algorithm 2: the paper's pseudo-code writes N_r^W; constructing
// an r'-DisC subset requires the new radius r', which is what this
// implementation uses (see docs/ARCHITECTURE.md, "Deviations from the
// paper").
//
// The zooming rule needs to know which objects have a previous
// representative within rNew. The previous solution keeps only its ids,
// so the post-processing pass that derives this (coveredWithin) runs
// first and is *not* charged to the zoom cost, matching the paper's
// attribution of that pass to the construction of S^r.
func ZoomIn(e Engine, prev *Solution, rNew float64, greedy, pruned bool) (*Solution, error) {
	if err := checkZoomArgs(e, prev, rNew); err != nil {
		return nil, err
	}
	if rNew >= prev.Radius {
		return nil, fmt.Errorf("core: zoom-in radius %g not smaller than %g", rNew, prev.Radius)
	}

	name := "Zoom-In"
	if greedy {
		name = "Greedy-Zoom-In"
	}
	s := newColoring(e.Size())

	// Zooming rule: black objects stay black; grey objects stay grey as
	// long as their closest black neighbour is within rNew.
	for id, c := range coveredWithin(e, prev.IDs, rNew) {
		if c {
			s.colors[id] = Grey
		}
	}
	for _, id := range prev.IDs {
		s.selectBlack(id)
	}
	if pruned {
		s.run.startCoverage(e, s.colors)
	}
	if greedy {
		coverGreedyGrey(s, within(e, rNew))
	} else {
		coverInOrder(s, e.ScanOrder(&s.run), within(e, rNew))
	}

	return s.solution(name, rNew), nil
}

func checkZoomArgs(e Engine, prev *Solution, rNew float64) error {
	if prev == nil {
		return fmt.Errorf("core: zoom: nil previous solution")
	}
	if err := checkIDs(e.Size(), prev.IDs); err != nil {
		return err
	}
	if rNew <= 0 || math.IsNaN(rNew) || math.IsInf(rNew, 0) {
		return fmt.Errorf("core: zoom: invalid radius %g", rNew)
	}
	return nil
}
