package core

import "github.com/discdiversity/disc/internal/object"

// neighborsFunc is a buffer-reusing neighbourhood query: it appends the
// neighbours of id to dst, charging run, and returns the extended slice.
type neighborsFunc func(dst []object.Neighbor, id int, run *Run) []object.Neighbor

// GreedyC computes an r-C diverse subset: the coverage condition of
// Definition 1 without requiring independence. It modifies Greedy-DisC so
// that both white and grey objects are candidates, always selecting the
// object that covers the most uncovered objects (line 6 of Algorithm 1
// relaxed). The paper's pruning rule is not applicable because grey
// objects and nodes must stay reachable to keep their counts current.
func GreedyC(e Engine, r float64) *Solution {
	full := func(dst []object.Neighbor, id int, run *Run) []object.Neighbor {
		return e.NeighborsAppend(dst, id, r, run)
	}
	return greedyCoverage(e, r, "Greedy-C", full, false)
}

// FastC is the cheaper r-C heuristic of Section 5.1: it behaves like
// GreedyC but answers every range query bottom-up, skipping fully covered
// (grey) subtrees is not needed; instead the climb stops at the first
// grey ancestor whose region contains the whole query ball ("the query
// stops climbing up the tree when the first grey internal node is met").
// Stopped queries may miss neighbours stored in distant leaves, which
// never breaks coverage — a missed white object simply stays white and is
// covered later — but can enlarge the result, exactly the trade-off the
// paper describes. The containment guard keeps the approximation from
// collapsing when the query ball is much larger than the local regions;
// see DESIGN.md ("Deliberate deviations") for a discussion of how our
// measurements compare with the paper's in-text Fast-C claims.
//
// On engines without bottom-up support FastC degrades to GreedyC.
func FastC(e Engine, r float64) *Solution {
	bu, hasBU := e.(BottomUpEngine)
	if !hasBU {
		full := func(dst []object.Neighbor, id int, run *Run) []object.Neighbor {
			return e.NeighborsAppend(dst, id, r, run)
		}
		return greedyCoverage(e, r, "Fast-C", full, false)
	}
	q := func(dst []object.Neighbor, id int, run *Run) []object.Neighbor {
		return bu.NeighborsBottomUpAppend(dst, id, r, true, run)
	}
	return greedyCoverage(e, r, "Fast-C", q, true)
}

// greedyCoverage is the shared loop of GreedyC and FastC. neighbors
// retrieves the (possibly approximate) neighbourhood used both to colour
// objects grey when a candidate is selected and to maintain candidate
// counts, appending into the run's scratch buffers. With track set the
// run tracks coverage, which FastC's grey stop reads.
func greedyCoverage(e Engine, r float64, name string, neighbors neighborsFunc, track bool) *Solution {
	n := e.Size()
	s := newColoring(n)
	run := &s.run
	if track {
		run.startCoverage(e, nil)
	}

	// nw[id] = number of *white* objects in N_r(id); every non-black
	// object is a candidate keyed by it.
	var sc queryScratch
	nw := initialWhiteCounts(e, r, run, &sc)
	var q bucketQueue
	fill(&q, nw, nil)
	// A grey candidate covering nothing new is useless (its count only
	// falls); a white one still covers itself.
	candidate := func(id int) bool {
		return s.colors[id] != Black && (nw[id] > 0 || s.colors[id] == White)
	}

	whitesLeft := n
	for whitesLeft > 0 {
		pc, ok := popLive(&q, nw, candidate)
		if !ok {
			break // unreachable: every white stays a candidate
		}
		wasWhite := s.colors[pc] == White
		s.selectBlack(pc)
		if wasWhite {
			whitesLeft--
		}
		sc.ns = neighbors(sc.ns[:0], pc, run)
		sc.grey = sc.grey[:0]
		for _, nb := range sc.ns {
			if s.colors[nb.ID] == White {
				s.grey(nb.ID)
				sc.grey = append(sc.grey, nb)
				whitesLeft--
			}
		}

		// Every object that left the white state (pc if it was white,
		// plus the newly greyed) decrements the count of each of its
		// non-black neighbours. pc's neighbourhood was just retrieved;
		// reuse it.
		if wasWhite {
			for _, nb := range sc.ns {
				if s.colors[nb.ID] != Black {
					nw[nb.ID]--
				}
			}
		}
		for _, gj := range sc.grey {
			sc.upd = neighbors(sc.upd[:0], gj.ID, run)
			for _, nk := range sc.upd {
				if s.colors[nk.ID] != Black {
					nw[nk.ID]--
				}
			}
		}
	}
	return s.solution(name, r)
}
