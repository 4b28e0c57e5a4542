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
	coverInOrder(s, order, within(e, r))
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

// multiRadiusNeighbors is the query of multi-radius DisC: q is a
// neighbour of p when dist(p,q) <= max(rad(p), rad(q)). One engine
// query at the maximum radius, charged to run, is appended to dst and
// filtered in place.
func multiRadiusNeighbors(e Engine, radii []float64, maxRad float64) neighborsFunc {
	return func(dst []object.Neighbor, id int, run *Run) []object.Neighbor {
		start := len(dst)
		dst = e.NeighborsAppend(dst, id, maxRad, run)
		kept := dst[:start]
		for _, nb := range dst[start:] {
			if nb.Dist <= maxFloat(radii[id], radii[nb.ID]) {
				kept = append(kept, nb)
			}
		}
		return kept
	}
}

// MultiRadiusDisC computes a DisC diverse subset under per-object radii:
// the returned set dominates and is independent in the graph whose edges
// connect objects with dist(p,q) <= max(rad(p), rad(q)). Objects are
// selected by descending generalised-neighbourhood size.
func MultiRadiusDisC(e Engine, radii []float64) (*Solution, error) {
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
	s := newColoring(n)
	coverGreedyGrey(s, multiRadiusNeighbors(e, radii, maxRad))
	return s.solution("Greedy-MultiRadius-DisC", maxRad), nil
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
