package core

import "github.com/discdiversity/disc/internal/object"

// neighborsFunc is a buffer-reusing neighbourhood query: it appends the
// neighbours of id to dst and returns the extended slice.
type neighborsFunc func(dst []object.Neighbor, id int) []object.Neighbor

// GreedyC computes an r-C diverse subset: the coverage condition of
// Definition 1 without requiring independence. It modifies Greedy-DisC so
// that both white and grey objects are candidates, always selecting the
// object that covers the most uncovered objects (line 6 of Algorithm 1
// relaxed). The paper's pruning rule is not applicable because grey
// objects and nodes must stay reachable to keep their counts current.
func GreedyC(e Engine, r float64) *Solution {
	full := func(dst []object.Neighbor, id int) []object.Neighbor {
		return e.NeighborsAppend(dst, id, r)
	}
	return greedyCoverage(e, r, "Greedy-C", full, full)
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
	cov, hasCov := e.(CoverageEngine)
	if !hasBU || !hasCov {
		full := func(dst []object.Neighbor, id int) []object.Neighbor {
			return e.NeighborsAppend(dst, id, r)
		}
		return greedyCoverage(e, r, "Fast-C", full, full)
	}
	cov.StartCoverage(nil)
	q := func(dst []object.Neighbor, id int) []object.Neighbor {
		return bu.NeighborsBottomUpAppend(dst, id, r, true)
	}
	return greedyCoverage(e, r, "Fast-C", q, q)
}

// greedyCoverage is the shared loop of GreedyC and FastC. colorNeighbors
// retrieves the neighbourhood used to colour objects grey when a
// candidate is selected; updateNeighbors (possibly approximate) is used
// to maintain candidate counts. Both append into the run's scratch
// buffers.
func greedyCoverage(e Engine, r float64, name string, colorNeighbors, updateNeighbors neighborsFunc) *Solution {
	n := e.Size()
	s := newColoring(n)
	cov, hasCov := e.(CoverageEngine)
	start := e.Accesses()

	// nw[id] = number of *white* objects in N_r(id); every non-black
	// object is a candidate keyed by it.
	var sc queryScratch
	nw := initialWhiteCounts(e, r, &sc)
	var q bucketQueue
	fill(&q, nw, nil)
	// A grey candidate covering nothing new is useless (its count only
	// falls); a white one still covers itself.
	candidate := func(id int) bool {
		return s.colors[id] != Black && (nw[id] > 0 || s.colors[id] == White)
	}

	whitesLeft := n
	// cover transitions an object out of the white state.
	cover := func(id int) {
		whitesLeft--
		if hasCov {
			cov.Cover(id)
		}
	}

	for whitesLeft > 0 {
		pc, ok := popLive(&q, nw, candidate)
		if !ok {
			break // unreachable: every white stays a candidate
		}
		wasWhite := s.colors[pc] == White
		s.selectBlack(pc)
		if wasWhite {
			cover(pc)
		}
		sc.ns = colorNeighbors(sc.ns[:0], pc)
		sc.grey = sc.grey[:0]
		for _, nb := range sc.ns {
			if s.colors[nb.ID] == White {
				s.colors[nb.ID] = Grey
				sc.grey = append(sc.grey, nb)
				cover(nb.ID)
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
			sc.upd = updateNeighbors(sc.upd[:0], gj.ID)
			for _, nk := range sc.upd {
				if s.colors[nk.ID] != Black {
					nw[nk.ID]--
				}
			}
		}
	}
	return s.solution(name, r, e.Accesses()-start)
}
