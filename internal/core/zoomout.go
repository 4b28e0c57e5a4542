package core

import (
	"fmt"
	"sort"

	"github.com/discdiversity/disc/internal/object"
)

// ZoomOutVariant selects the first-pass ordering of Zoom-Out
// (Section 3.2 / Algorithm 3).
type ZoomOutVariant int

const (
	// ZoomOutPlain examines the previous representatives in scan order
	// (the non-greedy Zoom-Out).
	ZoomOutPlain ZoomOutVariant = iota
	// ZoomOutGreedyA selects the red object with the *largest* number of
	// red neighbours, aiming to discard many old representatives per
	// selection (variation (a), the paper's Algorithm 3).
	ZoomOutGreedyA
	// ZoomOutGreedyB selects the red object with the *smallest* number
	// of red neighbours, aiming to keep S^r ∩ S^r' large (variation (b)).
	ZoomOutGreedyB
	// ZoomOutGreedyC selects the red object with the largest number of
	// white neighbours (variation (c)); its keys are recomputed with
	// fresh range queries every round, which is why the paper found its
	// cost can exceed computing a solution from scratch.
	ZoomOutGreedyC
)

// String implements fmt.Stringer.
func (v ZoomOutVariant) String() string {
	switch v {
	case ZoomOutPlain:
		return "Zoom-Out"
	case ZoomOutGreedyA:
		return "Greedy-Zoom-Out (a)"
	case ZoomOutGreedyB:
		return "Greedy-Zoom-Out (b)"
	case ZoomOutGreedyC:
		return "Greedy-Zoom-Out (c)"
	default:
		return fmt.Sprintf("Zoom-Out(%d)", int(v))
	}
}

// ZoomOut adapts an existing solution to a larger radius
// rNew > prev.Radius. Pass one re-examines the previous representatives
// (now "red"): each selected red covers — and thereby removes — the red
// neighbours that are no longer dissimilar at the larger radius. Pass two
// covers any objects left uncovered. Greedy variants select whites by
// descending white-neighbourhood size in the second pass; the plain
// variant takes them in scan order.
func ZoomOut(e Engine, prev *Solution, rNew float64, variant ZoomOutVariant) (*Solution, error) {
	if err := checkZoomArgs(e, prev, rNew); err != nil {
		return nil, err
	}
	if rNew <= prev.Radius {
		return nil, fmt.Errorf("core: zoom-out radius %g not larger than %g", rNew, prev.Radius)
	}
	if len(prev.IDs) == 0 {
		return nil, fmt.Errorf("core: zoom-out: previous solution is empty")
	}

	n := e.Size()
	s := newColoring(n)
	for _, id := range prev.IDs {
		s.colors[id] = Red
	}

	colorNeighbors := func(ns []object.Neighbor) {
		for _, nb := range ns {
			if c := s.colors[nb.ID]; c == White || c == Red {
				s.colors[nb.ID] = Grey
			}
		}
	}

	var sc queryScratch
	switch variant {
	case ZoomOutPlain:
		zoomOutPassOnePlain(e, s, prev, rNew, colorNeighbors, &sc)
	case ZoomOutGreedyC:
		zoomOutPassOneWhiteKey(e, s, prev, rNew, colorNeighbors, &sc)
	default:
		zoomOutPassOneRedKey(e, s, prev, rNew, variant == ZoomOutGreedyA, colorNeighbors)
	}

	// Pass two: cover the objects no representative reaches at rNew.
	if variant == ZoomOutPlain {
		for _, pi := range e.ScanOrder(&s.run) {
			if s.colors[pi] != White {
				continue
			}
			s.selectBlack(pi)
			sc.ns = e.NeighborsAppend(sc.ns[:0], pi, rNew, &s.run)
			colorNeighbors(sc.ns)
		}
	} else {
		zoomOutPassTwoGreedy(e, s, rNew, colorNeighbors, &sc)
	}

	return s.solution(variant.String(), rNew), nil
}

// zoomOutPassOnePlain processes the old representatives in scan order.
func zoomOutPassOnePlain(e Engine, s *coloring, prev *Solution, rNew float64, colorNeighbors func([]object.Neighbor), sc *queryScratch) {
	rank := scanRank(e, &s.run)
	reds := append([]int(nil), prev.IDs...)
	sort.Slice(reds, func(i, j int) bool { return rank[reds[i]] < rank[reds[j]] })
	for _, pi := range reds {
		if s.colors[pi] != Red {
			continue // covered by an earlier selection
		}
		s.selectBlack(pi)
		sc.ns = e.NeighborsAppend(sc.ns[:0], pi, rNew, &s.run)
		colorNeighbors(sc.ns)
	}
}

// zoomOutPassOneRedKey implements variations (a) and (b): reds are keyed
// by their current number of red neighbours. One range query per red
// establishes both the keys and the cached neighbourhoods reused when the
// red is selected; counts are maintained through the red-red adjacency.
// Per-red state lives in slices indexed by the red's position in reds
// (ascending id), with the neighbourhoods packed into one buffer.
//
// Keys only decrease, so variation (a)'s pick, the largest key with ties
// to the lowest slot and so to the lowest id, is the bucket queue's
// (key desc, id asc) protocol, and it pops from one. Variation (b) picks
// the smallest key, which a decreasing key can undercut after it was
// passed over; that order falls outside the protocol, so (b) keeps the
// linear scan over the reds each round.
func zoomOutPassOneRedKey(e Engine, s *coloring, prev *Solution, rNew float64, largest bool, colorNeighbors func([]object.Neighbor)) {
	reds := append([]int(nil), prev.IDs...)
	sort.Ints(reds)
	slot := make([]int32, e.Size())
	for i, pi := range reds {
		slot[pi] = int32(i)
	}
	var nbrs []object.Neighbor
	off := make([]int, len(reds)+1)
	redAdj := make([][]int32, len(reds))
	redCount := make([]int, len(reds))
	for i, pi := range reds {
		nbrs = e.NeighborsAppend(nbrs, pi, rNew, &s.run)
		off[i+1] = len(nbrs)
		for _, nb := range nbrs[off[i]:] {
			if s.colors[nb.ID] == Red {
				redAdj[i] = append(redAdj[i], slot[nb.ID])
			}
		}
		redCount[i] = len(redAdj[i])
	}
	// Selecting a red removes it and every red it covers from the red
	// set; their red neighbours' keys drop accordingly.
	leaveRed := func(x int32) {
		for _, y := range redAdj[x] {
			if s.colors[reds[y]] == Red {
				redCount[y]--
			}
		}
	}
	isRed := func(i int) bool { return s.colors[reds[i]] == Red }
	var q bucketQueue
	if largest {
		fill(&q, redCount, isRed)
	}
	for {
		best := -1
		if largest {
			if i, ok := popLive(&q, redCount, isRed); ok {
				best = i
			}
		} else {
			bestKey := 0
			for i := range reds {
				if isRed(i) && (best == -1 || redCount[i] < bestKey) {
					best, bestKey = i, redCount[i]
				}
			}
		}
		if best == -1 {
			return
		}
		s.selectBlack(reds[best])
		leaveRed(int32(best))
		ns := nbrs[off[best]:off[best+1]]
		for _, nb := range ns {
			if s.colors[nb.ID] == Red {
				s.colors[nb.ID] = Grey
				leaveRed(slot[nb.ID])
			}
		}
		colorNeighbors(ns)
	}
}

// zoomOutPassOneWhiteKey implements variation (c): each round recomputes,
// with fresh range queries, how many still-white objects every remaining
// red would cover, then selects the maximum. Candidate neighbourhoods
// land in sc.ns; the running best is copied into sc.grey so the two
// buffers never alias.
func zoomOutPassOneWhiteKey(e Engine, s *coloring, prev *Solution, rNew float64, colorNeighbors func([]object.Neighbor), sc *queryScratch) {
	reds := append([]int(nil), prev.IDs...)
	sort.Ints(reds)
	remaining := len(reds)
	for remaining > 0 {
		best := -1
		bestKey := -1
		for _, pi := range reds {
			if s.colors[pi] != Red {
				continue
			}
			sc.ns = e.NeighborsAppend(sc.ns[:0], pi, rNew, &s.run)
			k := 0
			for _, nb := range sc.ns {
				if s.colors[nb.ID] == White {
					k++
				}
			}
			if k > bestKey {
				best, bestKey = pi, k
				sc.grey = append(sc.grey[:0], sc.ns...)
			}
		}
		if best == -1 {
			break
		}
		s.selectBlack(best)
		remaining--
		for _, nb := range sc.grey {
			if s.colors[nb.ID] == Red {
				remaining--
			}
		}
		colorNeighbors(sc.grey)
	}
}

// zoomOutPassTwoGreedy covers the remaining whites by descending
// white-neighbourhood size (Algorithm 3, lines 12-19).
func zoomOutPassTwoGreedy(e Engine, s *coloring, rNew float64, colorNeighbors func([]object.Neighbor), sc *queryScratch) {
	n := e.Size()
	nw := make([]int, n)
	for id := 0; id < n; id++ {
		if s.colors[id] != White {
			continue
		}
		sc.upd = e.NeighborsAppend(sc.upd[:0], id, rNew, &s.run)
		for _, nb := range sc.upd {
			if s.colors[nb.ID] == White {
				nw[id]++
			}
		}
	}
	var q bucketQueue
	fill(&q, nw, s.isWhite)
	for {
		pi, ok := popLive(&q, nw, s.isWhite)
		if !ok {
			return
		}
		s.selectBlack(pi)
		sc.ns = e.NeighborsAppend(sc.ns[:0], pi, rNew, &s.run)
		sc.grey = sc.grey[:0]
		for _, nb := range sc.ns {
			if s.colors[nb.ID] == White {
				sc.grey = append(sc.grey, nb)
			}
		}
		colorNeighbors(sc.ns)
		for _, gj := range sc.grey {
			sc.upd = e.NeighborsAppend(sc.upd[:0], gj.ID, rNew, &s.run)
			for _, nk := range sc.upd {
				if s.colors[nk.ID] == White {
					nw[nk.ID]--
				}
			}
		}
	}
}

// scanRank maps every object id to its position in the engine's scan
// order, charging the scan to run.
func scanRank(e Engine, run *Run) []int {
	rank := make([]int, e.Size())
	for pos, id := range e.ScanOrder(run) {
		rank[id] = pos
	}
	return rank
}
