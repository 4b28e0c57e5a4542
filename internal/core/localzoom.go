package core

import (
	"fmt"
	"slices"
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
// representatives are chosen among them, greedily by white-neighbourhood
// size within the region (coverGreedy). Per the paper, the algorithm
// receives only the objects in N_r(center).
func LocalZoomIn(e Engine, prev *Solution, center int, rNew float64) (*LocalResult, error) {
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
	s := newColoring(e.Size())

	region := regionAround(e, center, prev.Radius, &s.run)
	res := &LocalResult{Center: center, LocalRadius: rNew, Region: region}

	// Whites: region objects not covered by any representative at the
	// new radius (the centre covers itself). Other representatives
	// cannot be inside the region (independence), but they may still
	// cover part of it from outside, which is why coverage by every
	// representative is consulted. Everything outside the region is
	// grey, so queries find whites only inside it.
	for id := range s.colors {
		s.colors[id] = Grey
	}
	for _, id := range region {
		if !covered[id] {
			s.colors[id] = White
		}
	}

	// Each pick and its new greys decrement the remaining whites by
	// direct distance checks (the region is small), which charge no
	// accesses.
	query := within(e, rNew)
	nw := whiteCounts(s, query)
	m := e.Metric()
	coverGreedy(s, nw, query, func(pi int, grey []object.Neighbor) {
		for _, id := range region {
			if s.colors[id] != White {
				continue
			}
			p := e.Point(id)
			if m.Dist(p, e.Point(pi)) <= rNew {
				nw[id]--
			}
			for _, g := range grey {
				if m.Dist(p, e.Point(g.ID)) <= rNew {
					nw[id]--
				}
			}
		}
	})

	res.Added = s.ids
	res.Final = mergeFinal(prev.IDs, nil, res.Added)
	res.Accesses = s.run.accesses
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
	s := newColoring(e.Size())

	region := regionAround(e, center, rNew, &s.run)
	res := &LocalResult{Center: center, LocalRadius: rNew, Region: region}

	removed := make(map[int]bool)
	for _, id := range prev.IDs {
		if _, in := slices.BinarySearch(region, id); in && id != center {
			removed[id] = true
			res.Removed = append(res.Removed, id)
		}
	}
	sort.Ints(res.Removed)
	if len(removed) == 0 {
		res.Final = mergeFinal(prev.IDs, nil, nil)
		res.Accesses = s.run.accesses
		return res, nil
	}

	// Boundary repair: objects whose only representative within the
	// original radius was removed become uncovered unless the centre now
	// covers them at rNew. Cover them at the original radius, smallest
	// id first.
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
		buf = e.NeighborsAppend(buf[:0], b, prev.Radius, &s.run)
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
	order := make([]int, 0, len(uncovered))
	for id := range uncovered {
		order = append(order, id)
	}
	sort.Ints(order)
	coverInOrder(s, order, within(e, prev.Radius))

	res.Added = s.ids
	res.Final = mergeFinal(prev.IDs, removed, res.Added)
	res.Accesses = s.run.accesses
	return res, nil
}

// regionAround returns N_r(center) ∪ {center} as a sorted id slice,
// charging the query to run.
func regionAround(e Engine, center int, r float64, run *Run) []int {
	ns := e.NeighborsAppend(nil, center, r, run)
	region := make([]int, 0, len(ns)+1)
	region = append(region, center)
	for _, nb := range ns {
		region = append(region, nb.ID)
	}
	sort.Ints(region)
	return region
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
