package core

import "github.com/discdiversity/disc/internal/object"

// GreedyC computes an r-C diverse subset: the coverage condition of
// Definition 1 without requiring independence. It modifies Greedy-DisC so
// that both white and grey objects are candidates, always selecting the
// object that covers the most uncovered objects (line 6 of Algorithm 1
// relaxed). The paper's pruning rule is not applicable because grey
// objects and nodes must stay reachable to keep their counts current.
func GreedyC(e Engine, r float64) *Solution {
	return greedyCoverage(e, r, "Greedy-C", within(e, r), false)
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
// docs/ARCHITECTURE.md ("Deviations from the paper") compares the
// measurements with the paper's in-text Fast-C claims.
//
// On engines without bottom-up support FastC degrades to GreedyC.
func FastC(e Engine, r float64) *Solution {
	bu, hasBU := e.(BottomUpEngine)
	if !hasBU {
		return greedyCoverage(e, r, "Fast-C", within(e, r), false)
	}
	q := func(dst []object.Neighbor, id int, run *Run) []object.Neighbor {
		return bu.NeighborsBottomUpAppend(dst, id, r, true, run)
	}
	return greedyCoverage(e, r, "Fast-C", q, true)
}

// greedyCoverage is the shared loop of GreedyC and FastC. neighbors
// retrieves the (possibly approximate) neighbourhood used both to colour
// objects grey when a candidate is selected and to maintain candidate
// counts, appending into reused buffers. With track set the
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
	nw := initialWhiteCounts(e, r, run)
	var q bucketQueue
	fill(&q, nw, nil)
	// A grey candidate covering nothing new is useless (its count only
	// falls); a white one still covers itself.
	candidate := func(id int) bool {
		return s.colors[id] != Black && (nw[id] > 0 || s.colors[id] == White)
	}

	var ns, grey, upd []object.Neighbor
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
		ns = neighbors(ns[:0], pc, run)
		grey = grey[:0]
		for _, nb := range ns {
			if s.colors[nb.ID] == White {
				s.grey(nb.ID)
				grey = append(grey, nb)
				whitesLeft--
			}
		}

		// Every object that left the white state (pc if it was white,
		// plus the newly greyed) decrements the count of each of its
		// non-black neighbours. pc's neighbourhood was just retrieved;
		// reuse it.
		if wasWhite {
			for _, nb := range ns {
				if s.colors[nb.ID] != Black {
					nw[nb.ID]--
				}
			}
		}
		for _, gj := range grey {
			upd = neighbors(upd[:0], gj.ID, run)
			for _, nk := range upd {
				if s.colors[nk.ID] != Black {
					nw[nk.ID]--
				}
			}
		}
	}
	return s.solution(name, r)
}
