package core

import (
	"fmt"
	"sort"

	"github.com/discdiversity/disc/internal/object"
)

// This file implements the two extensions sketched in the paper's
// Section 8 ("Summary and Future Work"):
//
//   - Weighted DisC: every object carries a relevance weight and the goal
//     is a DisC diverse subset of large total weight. Because any maximal
//     independent set of G_{P,r} is r-DisC diverse (Lemma 1), a greedy
//     pass over the objects in descending weight order yields a valid
//     subset that locally maximises the weight of every pick.
//
//   - Multi-radius DisC: relevance is expressed through per-object radii
//     instead (more relevant objects get a smaller radius, so their
//     regions stay finely represented). Two objects are mutually similar
//     when dist(p,q) <= max(rad(p), rad(q)), which keeps the similarity
//     relation symmetric and turns the problem into an independent
//     dominating set on the generalised neighbourhood graph; the standard
//     algorithms then carry over.

// WeightedGreedyDisC computes an r-DisC diverse subset preferring heavy
// objects: objects are considered in descending weight order (ties by
// ascending id) and every still-uncovered object encountered is selected.
// The result is a maximal independent set and therefore a valid r-DisC
// diverse subset; among such subsets it greedily maximises the weight of
// each selected representative.
func WeightedGreedyDisC(e Engine, r float64, weights []float64) (*Solution, error) {
	n := e.Size()
	if len(weights) != n {
		return nil, fmt.Errorf("core: %d weights for %d objects", len(weights), n)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		wa, wb := weights[order[a]], weights[order[b]]
		if wa != wb {
			return wa > wb
		}
		return order[a] < order[b]
	})

	s := newColoring(n)
	var buf []object.Neighbor
	for _, pi := range order {
		if s.colors[pi] != White {
			continue
		}
		s.selectBlack(pi)
		buf = e.NeighborsAppend(buf[:0], pi, r, &s.run)
		for _, nb := range buf {
			if s.colors[nb.ID] == White {
				s.colors[nb.ID] = Grey
			}
		}
	}
	return s.solution("Weighted-Greedy-DisC", r), nil
}

// TotalWeight sums the weights of the selected objects.
func TotalWeight(s *Solution, weights []float64) float64 {
	var total float64
	for _, id := range s.IDs {
		total += weights[id]
	}
	return total
}

// appendMultiRadiusNeighbors returns the objects similar to id under
// per-object radii: q is a neighbour of p when dist(p,q) <=
// max(rad(p), rad(q)). One engine query at the maximum radius, charged
// to run, lands in dst (which is fully overwritten from index 0) and is
// filtered in place.
func appendMultiRadiusNeighbors(dst []object.Neighbor, e Engine, id int, radii []float64, maxRad float64, run *Run) []object.Neighbor {
	dst = e.NeighborsAppend(dst[:0], id, maxRad, run)
	kept := dst[:0]
	for _, nb := range dst {
		if nb.Dist <= maxFloat(radii[id], radii[nb.ID]) {
			kept = append(kept, nb)
		}
	}
	return kept
}

// MultiRadiusDisC computes a DisC diverse subset under per-object radii:
// the returned set dominates and is independent in the graph whose edges
// connect objects with dist(p,q) <= max(rad(p), rad(q)). With greedy set,
// objects are selected by descending generalised-neighbourhood size;
// otherwise in engine scan order.
func MultiRadiusDisC(e Engine, radii []float64, greedy bool) (*Solution, error) {
	n := e.Size()
	if len(radii) != n {
		return nil, fmt.Errorf("core: %d radii for %d objects", len(radii), n)
	}
	maxRad := 0.0
	for i, r := range radii {
		if r < 0 {
			return nil, fmt.Errorf("core: negative radius %g for object %d", r, i)
		}
		if r > maxRad {
			maxRad = r
		}
	}
	name := "MultiRadius-DisC"
	if greedy {
		name = "Greedy-MultiRadius-DisC"
	}
	s := newColoring(n)

	var sc queryScratch
	// colorFrom queries into sc.ns and leaves the newly greyed objects
	// in sc.grey.
	colorFrom := func(pi int) {
		sc.ns = appendMultiRadiusNeighbors(sc.ns, e, pi, radii, maxRad, &s.run)
		sc.grey = sc.grey[:0]
		for _, nb := range sc.ns {
			if s.colors[nb.ID] == White {
				s.colors[nb.ID] = Grey
				sc.grey = append(sc.grey, nb)
			}
		}
	}

	if !greedy {
		for _, pi := range e.ScanOrder(&s.run) {
			if s.colors[pi] != White {
				continue
			}
			s.selectBlack(pi)
			colorFrom(pi)
		}
	} else {
		nw := make([]int, n)
		for id := 0; id < n; id++ {
			sc.upd = appendMultiRadiusNeighbors(sc.upd, e, id, radii, maxRad, &s.run)
			nw[id] = len(sc.upd)
		}
		var q bucketQueue
		fill(&q, nw, nil)
		for {
			pi, ok := popLive(&q, nw, s.isWhite)
			if !ok {
				break
			}
			s.selectBlack(pi)
			colorFrom(pi)
			for _, gj := range sc.grey {
				sc.upd = appendMultiRadiusNeighbors(sc.upd, e, gj.ID, radii, maxRad, &s.run)
				for _, nk := range sc.upd {
					if s.colors[nk.ID] == White {
						nw[nk.ID]--
					}
				}
			}
		}
	}
	return s.solution(name, maxRad), nil
}

// CheckMultiRadiusDisC verifies the generalised Definition 1 under
// per-object radii by direct distance computation: every object must have
// a representative within max(rad(p), rad(s)), and no two representatives
// may lie within max of their radii.
func CheckMultiRadiusDisC(pts []object.Point, m object.Metric, ids []int, radii []float64) error {
	if len(pts) != len(radii) {
		return fmt.Errorf("core: %d radii for %d objects", len(radii), len(pts))
	}
	if len(pts) > 0 && len(ids) == 0 {
		return fmt.Errorf("core: empty subset cannot cover %d objects", len(pts))
	}
	for i, p := range pts {
		covered := false
		for _, s := range ids {
			if i == s || m.Dist(p, pts[s]) <= maxFloat(radii[i], radii[s]) {
				covered = true
				break
			}
		}
		if !covered {
			return fmt.Errorf("core: object %d is not covered under its radius %g", i, radii[i])
		}
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			a, b := ids[i], ids[j]
			if d := m.Dist(pts[a], pts[b]); d <= maxFloat(radii[a], radii[b]) {
				return fmt.Errorf("core: representatives %d and %d at distance %g within max radius %g",
					a, b, d, maxFloat(radii[a], radii[b]))
			}
		}
	}
	return nil
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
