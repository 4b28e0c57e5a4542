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

	switch variant {
	case ZoomOutPlain:
		zoomOutPassOnePlain(e, s, prev, rNew, colorNeighbors)
	case ZoomOutGreedyC:
		zoomOutPassOneWhiteKey(e, s, prev, rNew, colorNeighbors)
	default:
		zoomOutPassOneRedKey(e, s, prev, rNew, variant == ZoomOutGreedyA, colorNeighbors)
	}

	// Pass two: cover the objects no representative reaches at rNew, in
	// scan order or, for the greedy variants, by L′ (Algorithm 3, lines
	// 12–19).
	if variant == ZoomOutPlain {
		coverInOrder(s, e.ScanOrder(&s.run), within(e, rNew))
	} else {
		coverGreedyGrey(s, within(e, rNew))
	}

	return s.solution(variant.String(), rNew), nil
}

// zoomOutPassOnePlain processes the old representatives in scan order.
func zoomOutPassOnePlain(e Engine, s *coloring, prev *Solution, rNew float64, colorNeighbors func([]object.Neighbor)) {
	rank := scanRank(e, &s.run)
	reds := append([]int(nil), prev.IDs...)
	sort.Slice(reds, func(i, j int) bool { return rank[reds[i]] < rank[reds[j]] })
	var ns []object.Neighbor
	for _, pi := range reds {
		if s.colors[pi] != Red {
			continue // covered by an earlier selection
		}
		s.selectBlack(pi)
		ns = e.NeighborsAppend(ns[:0], pi, rNew, &s.run)
		colorNeighbors(ns)
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
// land in ns; the running best is copied into bestNs so the two buffers
// never alias.
func zoomOutPassOneWhiteKey(e Engine, s *coloring, prev *Solution, rNew float64, colorNeighbors func([]object.Neighbor)) {
	reds := append([]int(nil), prev.IDs...)
	sort.Ints(reds)
	remaining := len(reds)
	var ns, bestNs []object.Neighbor
	for remaining > 0 {
		best := -1
		bestKey := -1
		for _, pi := range reds {
			if s.colors[pi] != Red {
				continue
			}
			ns = e.NeighborsAppend(ns[:0], pi, rNew, &s.run)
			k := 0
			for _, nb := range ns {
				if s.colors[nb.ID] == White {
					k++
				}
			}
			if k > bestKey {
				best, bestKey = pi, k
				bestNs = append(bestNs[:0], ns...)
			}
		}
		if best == -1 {
			break
		}
		s.selectBlack(best)
		remaining--
		for _, nb := range bestNs {
			if s.colors[nb.ID] == Red {
				remaining--
			}
		}
		colorNeighbors(bestNs)
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
