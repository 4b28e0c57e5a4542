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
//
// Pass two reads only white objects, so it runs under the pruning rule,
// as pruned Zoom-In does: once pass one ends, the run tracks coverage
// and every pass-two query skips the objects already covered. The
// picks are those of unpruned queries; only the engine cost falls.
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
	s := zoomOutPassOne(e, prev, rNew, variant)
	s.run.startCoverage(e, s.colors)
	zoomOutPassTwo(e, s, rNew, variant)
	return s.solution(variant.String(), rNew), nil
}

// zoomOutPassOne colours the previous representatives red and runs the
// variant's first pass over them, which leaves every object white, grey
// or black.
func zoomOutPassOne(e Engine, prev *Solution, rNew float64, variant ZoomOutVariant) *coloring {
	s := newColoring(e.Size())
	for _, id := range prev.IDs {
		s.colors[id] = Red
	}
	switch variant {
	case ZoomOutPlain:
		zoomOutPassOnePlain(e, s, prev, rNew)
	case ZoomOutGreedyC:
		zoomOutPassOneWhiteKey(e, s, prev, rNew)
	default:
		zoomOutPassOneRedKey(e, s, prev, rNew, variant == ZoomOutGreedyA)
	}
	return s
}

// zoomOutPassTwo covers the objects no representative reaches at rNew,
// in scan order or, for the greedy variants, by L′ (Algorithm 3, lines
// 12–19).
func zoomOutPassTwo(e Engine, s *coloring, rNew float64, variant ZoomOutVariant) {
	if variant == ZoomOutPlain {
		coverInOrder(s, e.ScanOrder(&s.run), within(e, rNew))
	} else {
		coverGreedyGrey(s, within(e, rNew))
	}
}

// coverByPassOne greys id when it is white or red: a pass-one pick
// covers both.
func coverByPassOne(s *coloring, id int) {
	if c := s.colors[id]; c == White || c == Red {
		s.colors[id] = Grey
	}
}

// zoomOutPassOnePlain processes the old representatives in scan order.
func zoomOutPassOnePlain(e Engine, s *coloring, prev *Solution, rNew float64) {
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
		for _, nb := range ns {
			coverByPassOne(s, nb.ID)
		}
	}
}

// zoomOutPassOneRedKey implements variations (a) and (b): reds are keyed
// by their current number of red neighbours. One range query per red
// establishes both the keys and the cached neighbourhoods reused when the
// red is selected; counts are maintained through the red-red adjacency.
// Per-red state lives in slices indexed by the red's position in reds
// (ascending id): the neighbourhoods as ids packed into one array, the
// red-red adjacency as slots packed into another, each with offsets.
//
// Keys only decrease, so variation (a)'s pick, the largest key with ties
// to the lowest slot and so to the lowest id, is the bucket queue's
// (key desc, id asc) protocol, and it pops from one. Variation (b) picks
// the smallest key, which a decreasing key can undercut after it was
// passed over; that order falls outside the protocol, so (b) keeps the
// linear scan over the reds each round.
func zoomOutPassOneRedKey(e Engine, s *coloring, prev *Solution, rNew float64, largest bool) {
	reds := append([]int(nil), prev.IDs...)
	sort.Ints(reds)
	slot := make([]int32, e.Size())
	for i, pi := range reds {
		slot[pi] = int32(i)
	}
	var ns []object.Neighbor
	var nbrs, adj []int32
	off := make([]int, len(reds)+1)
	adjOff := make([]int, len(reds)+1)
	redCount := make([]int, len(reds))
	for i, pi := range reds {
		ns = e.NeighborsAppend(ns[:0], pi, rNew, &s.run)
		if need := len(nbrs) + len(ns); need > cap(nbrs) {
			// Grow to what the neighbourhoods so far project for every
			// red, not by doubling: the cache is most of a zoom-out's
			// allocation.
			grown := make([]int32, len(nbrs), max(need*len(reds)/(i+1), need))
			copy(grown, nbrs)
			nbrs = grown
		}
		for _, nb := range ns {
			nbrs = append(nbrs, int32(nb.ID))
			if s.colors[nb.ID] == Red {
				adj = append(adj, slot[nb.ID])
			}
		}
		off[i+1], adjOff[i+1] = len(nbrs), len(adj)
		redCount[i] = adjOff[i+1] - adjOff[i]
	}
	// Selecting a red removes it and every red it covers from the red
	// set; their red neighbours' keys drop accordingly.
	leaveRed := func(x int32) {
		for _, y := range adj[adjOff[x]:adjOff[x+1]] {
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
		for _, id := range nbrs[off[best]:off[best+1]] {
			if s.colors[id] == Red {
				leaveRed(slot[id])
			}
			coverByPassOne(s, int(id))
		}
	}
}

// zoomOutPassOneWhiteKey implements variation (c): each round recomputes,
// with fresh range queries, how many still-white objects every remaining
// red would cover, then selects the maximum. Candidate neighbourhoods
// land in ns; the running best is copied into bestNs so the two buffers
// never alias.
func zoomOutPassOneWhiteKey(e Engine, s *coloring, prev *Solution, rNew float64) {
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
		for _, nb := range bestNs {
			coverByPassOne(s, nb.ID)
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
