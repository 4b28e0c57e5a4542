package core

import (
	"fmt"
	"sort"

	"github.com/discdiversity/disc/internal/object"
)

// LocalResult describes the outcome of zooming locally around a single
// representative (paper Section 3, Figures 1(d) and 2): the rest of the
// solution is untouched, only the neighbourhood of the chosen object is
// re-diversified at the new radius.
type LocalResult struct {
	// Center is the representative the user zoomed into.
	Center int
	// LocalRadius is the radius now in effect inside the region.
	LocalRadius float64
	// Region lists the objects participating in the local operation.
	Region []int
	// Added are representatives introduced inside the region (zoom-in)
	// or at its boundary (zoom-out repair), in selection order.
	Added []int
	// Removed are previous representatives dropped by a local zoom-out.
	Removed []int
	// Final is the full updated representative set: the previous
	// solution with Removed taken out and Added appended.
	Final []int
	// Accesses is the engine cost consumed by the local operation.
	Accesses int64
}

// LocalZoomIn re-diversifies the neighbourhood N_r(center) of a selected
// object at a smaller radius rNew < r: objects in the region whose closest
// representative is farther than rNew become uncovered and new local
// representatives are chosen among them (greedily by white-neighbourhood
// size within the region when greedy is set, in scan order otherwise).
// Per the paper, the algorithm receives only the objects in N_r(center).
func LocalZoomIn(e Engine, prev *Solution, center int, rNew float64, greedy bool) (*LocalResult, error) {
	if err := checkZoomArgs(e, prev, rNew); err != nil {
		return nil, err
	}
	if rNew >= prev.Radius {
		return nil, fmt.Errorf("core: local zoom-in radius %g not smaller than %g", rNew, prev.Radius)
	}
	if !prev.Contains(center) {
		return nil, fmt.Errorf("core: local zoom-in: object %d is not a selected representative", center)
	}
	// The zooming rule's post-processing pass, uncharged as in ZoomIn.
	covered := coveredWithin(e, prev.IDs, rNew)
	var run Run

	region, inRegion := regionAround(e, center, prev.Radius, &run)
	res := &LocalResult{Center: center, LocalRadius: rNew, Region: region}

	// Whites: region objects (other than the centre) not covered by any
	// representative at the new radius. Other representatives cannot be
	// inside the region (independence), but they may still cover part of
	// it from outside, which is why coverage by every representative is
	// consulted.
	white := make(map[int]bool, len(region))
	for _, id := range region {
		if id != center && !covered[id] {
			white[id] = true
		}
	}

	var buf []object.Neighbor
	neighborsInRegion := func(id int) []object.Neighbor {
		buf = e.NeighborsAppend(buf[:0], id, rNew, &run)
		kept := buf[:0]
		for _, nb := range buf {
			if inRegion[nb.ID] {
				kept = append(kept, nb)
			}
		}
		return kept
	}
	// left collects the objects the last selectLocal took out of the
	// white set: the pick and its white neighbours in the region.
	var left []int
	selectLocal := func(pi int) {
		res.Added = append(res.Added, pi)
		left = append(left[:0], pi)
		delete(white, pi)
		for _, nb := range neighborsInRegion(pi) {
			if white[nb.ID] {
				left = append(left, nb.ID)
			}
			delete(white, nb.ID)
		}
	}

	if greedy {
		// The white-neighbourhood sizes are indexed by region position;
		// region is in ascending id order, so the queue's ties by
		// position are ties by id. Each pick's leavers decrement the
		// remaining whites by direct distance checks (the region is
		// small), which charge no accesses.
		m := e.Metric()
		nw := make([]int, len(region))
		for j, id := range region {
			if !white[id] {
				continue
			}
			for _, nb := range neighborsInRegion(id) {
				if white[nb.ID] {
					nw[j]++
				}
			}
		}
		live := func(j int) bool { return white[region[j]] }
		var q bucketQueue
		fill(&q, nw, live)
		for {
			j, ok := popLive(&q, nw, live)
			if !ok {
				break
			}
			selectLocal(region[j])
			for k, id := range region {
				if !white[id] {
					continue
				}
				for _, g := range left {
					if m.Dist(e.Point(id), e.Point(g)) <= rNew {
						nw[k]--
					}
				}
			}
		}
	} else {
		for _, pi := range e.ScanOrder(&run) {
			if len(white) == 0 {
				break
			}
			if white[pi] {
				selectLocal(pi)
			}
		}
	}

	res.Final = mergeFinal(prev.IDs, nil, res.Added)
	res.Accesses = run.accesses
	return res, nil
}

// LocalZoomOut coarsens the solution around center at rNew > r: previous
// representatives within rNew of center are redundant at the larger local
// radius and are removed; objects near the region boundary that relied on
// a removed representative are re-covered at the original radius so the
// rest of the solution keeps its guarantees.
func LocalZoomOut(e Engine, prev *Solution, center int, rNew float64) (*LocalResult, error) {
	if err := checkZoomArgs(e, prev, rNew); err != nil {
		return nil, err
	}
	if rNew <= prev.Radius {
		return nil, fmt.Errorf("core: local zoom-out radius %g not larger than %g", rNew, prev.Radius)
	}
	if !prev.Contains(center) {
		return nil, fmt.Errorf("core: local zoom-out: object %d is not a selected representative", center)
	}
	var run Run

	region, inRegion := regionAround(e, center, rNew, &run)
	res := &LocalResult{Center: center, LocalRadius: rNew, Region: region}

	removed := make(map[int]bool)
	for _, id := range prev.IDs {
		if id != center && inRegion[id] {
			removed[id] = true
			res.Removed = append(res.Removed, id)
		}
	}
	sort.Ints(res.Removed)
	if len(removed) == 0 {
		res.Final = mergeFinal(prev.IDs, nil, nil)
		res.Accesses = run.accesses
		return res, nil
	}

	// Boundary repair: objects whose only representative within the
	// original radius was removed become uncovered unless the centre now
	// covers them at rNew. Cover them greedily at the original radius.
	kept := make(map[int]bool, len(prev.IDs))
	for _, id := range prev.IDs {
		if !removed[id] {
			kept[id] = true
		}
	}
	uncovered := make(map[int]bool)
	m := e.Metric()
	var buf []object.Neighbor
	for _, b := range res.Removed {
		buf = e.NeighborsAppend(buf[:0], b, prev.Radius, &run)
		for _, nb := range buf {
			if kept[nb.ID] || uncovered[nb.ID] {
				continue
			}
			if m.Dist(e.Point(nb.ID), e.Point(center)) <= rNew {
				continue // absorbed by the enlarged centre
			}
			if covered := anyWithin(e, kept, nb.ID, prev.Radius); !covered {
				uncovered[nb.ID] = true
			}
		}
	}
	for len(uncovered) > 0 {
		// Deterministic: smallest id first.
		pi := -1
		for id := range uncovered {
			if pi == -1 || id < pi {
				pi = id
			}
		}
		res.Added = append(res.Added, pi)
		kept[pi] = true
		delete(uncovered, pi)
		buf = e.NeighborsAppend(buf[:0], pi, prev.Radius, &run)
		for _, nb := range buf {
			delete(uncovered, nb.ID)
		}
	}

	res.Final = mergeFinal(prev.IDs, removed, res.Added)
	res.Accesses = run.accesses
	return res, nil
}

// regionAround returns N_r(center) ∪ {center} as a sorted id slice plus a
// membership map, charging the query to run.
func regionAround(e Engine, center int, r float64, run *Run) ([]int, map[int]bool) {
	ns := e.NeighborsAppend(nil, center, r, run)
	region := make([]int, 0, len(ns)+1)
	inRegion := make(map[int]bool, len(ns)+1)
	region = append(region, center)
	inRegion[center] = true
	for _, nb := range ns {
		region = append(region, nb.ID)
		inRegion[nb.ID] = true
	}
	sort.Ints(region)
	return region, inRegion
}

// anyWithin reports whether any kept representative lies within r of id.
// It checks by direct distance: the kept set is small.
func anyWithin(e Engine, kept map[int]bool, id int, r float64) bool {
	m := e.Metric()
	p := e.Point(id)
	for b := range kept {
		if m.Dist(p, e.Point(b)) <= r {
			return true
		}
	}
	return false
}

// mergeFinal builds the updated representative list: previous ids minus
// removed, then added, preserving order.
func mergeFinal(prevIDs []int, removed map[int]bool, added []int) []int {
	final := make([]int, 0, len(prevIDs)+len(added))
	for _, id := range prevIDs {
		if removed == nil || !removed[id] {
			final = append(final, id)
		}
	}
	final = append(final, added...)
	return final
}
