package core

import "github.com/discdiversity/disc/internal/object"

// neighborsFunc is a buffer-reusing neighbourhood query: it appends the
// neighbours of id to dst, charging run, and returns the extended slice.
type neighborsFunc func(dst []object.Neighbor, id int, run *Run) []object.Neighbor

// within is the range query at r: the run's white neighbours once it
// tracks coverage (the pruning rule), every neighbour otherwise.
func within(e Engine, r float64) neighborsFunc {
	return func(dst []object.Neighbor, id int, run *Run) []object.Neighbor {
		return run.neighbors(e, dst, id, r)
	}
}

// coverInOrder is the covering step of Lemma 1: it walks order, selects
// every object still white when reached and greys its white
// neighbours. The picks are independent, and every object in order
// ends up covered, so covering every object yields a maximal
// independent set and thereby an r-DisC diverse subset.
func coverInOrder(s *coloring, order []int, query neighborsFunc) {
	var ns []object.Neighbor
	for _, pi := range order {
		if s.colors[pi] != White {
			continue
		}
		s.selectBlack(pi)
		ns = query(ns[:0], pi, &s.run)
		for _, nb := range ns {
			if s.colors[nb.ID] == White {
				s.grey(nb.ID)
			}
		}
	}
}

// coverGreedy is the covering step of Algorithms 1–3: while an object
// is white, it pops from L′ the white object with the most white
// neighbours (ties to the smaller id), selects it, greys its white
// neighbours, and hands the pick and the new greys to update, which
// decrements counts for the whites whose neighbourhoods shrank. counts
// holds every white object's white-neighbourhood size.
func coverGreedy(s *coloring, counts []int, query neighborsFunc, update func(pi int, grey []object.Neighbor)) {
	var q bucketQueue
	fill(&q, counts, s.isWhite)
	var ns, grey []object.Neighbor
	for {
		pi, ok := popLive(&q, counts, s.isWhite)
		if !ok {
			return
		}
		s.selectBlack(pi)
		ns = query(ns[:0], pi, &s.run)
		grey = grey[:0]
		for _, nb := range ns {
			if s.colors[nb.ID] == White {
				s.grey(nb.ID)
				grey = append(grey, nb)
			}
		}
		update(pi, grey)
	}
}

// whiteCounts returns, for every white object in id order, how many of
// the neighbours query finds for it are white (zero for the others).
func whiteCounts(s *coloring, query neighborsFunc) []int {
	counts := make([]int, len(s.colors))
	var ns []object.Neighbor
	for id, c := range s.colors {
		if c != White {
			continue
		}
		ns = query(ns[:0], id, &s.run)
		for _, nb := range ns {
			if s.colors[nb.ID] == White {
				counts[id]++
			}
		}
	}
	return counts
}

// greyUpdate is Grey-Greedy-DisC's count maintenance: each new grey's
// query decrements the count of every white neighbour it finds. The
// pick itself needs no query, as its white neighbours all turned grey.
func greyUpdate(s *coloring, counts []int, query neighborsFunc) func(pi int, grey []object.Neighbor) {
	var ns []object.Neighbor
	return func(_ int, grey []object.Neighbor) {
		for _, gj := range grey {
			ns = query(ns[:0], gj.ID, &s.run)
			for _, nk := range ns {
				if s.colors[nk.ID] == White {
					counts[nk.ID]--
				}
			}
		}
	}
}

// coverGreedyGrey runs coverGreedy over the whites of s with counts and
// their maintenance both taken from query: the greedy pass of
// Greedy-Zoom-In, of Greedy-Zoom-Out's second pass and of greedy
// multi-radius DisC.
func coverGreedyGrey(s *coloring, query neighborsFunc) {
	counts := whiteCounts(s, query)
	coverGreedy(s, counts, query, greyUpdate(s, counts, query))
}
