package core

// BasicDisC computes an r-DisC diverse subset with the paper's baseline
// heuristic (Section 2.3): repeatedly take an arbitrary white object —
// here the next white object in the engine's locality-preserving scan
// order — color it black and color its neighbourhood grey. The produced
// set is a maximal independent set of G_{P,r} and therefore r-DisC
// diverse (Lemma 1).
//
// With pruned set (and a CoverageEngine) range queries skip fully covered
// regions, the "Basic-DisC (Pruned)" variant of the evaluation.
func BasicDisC(e Engine, r float64, pruned bool) *Solution {
	n := e.Size()
	name := "Basic-DisC"
	cov, hasCov := e.(CoverageEngine)
	usePrune := pruned && hasCov
	if usePrune {
		name += " (Pruned)"
		cov.StartCoverage(nil)
	}
	s := newColoring(n)
	start := e.Accesses()

	var sc queryScratch
	for _, pi := range e.ScanOrder() {
		if s.colors[pi] != White {
			continue
		}
		s.selectBlack(pi)
		if usePrune {
			cov.Cover(pi)
			sc.ns = cov.NeighborsWhiteAppend(sc.ns[:0], pi, r)
		} else {
			sc.ns = e.NeighborsAppend(sc.ns[:0], pi, r)
		}
		for _, nb := range sc.ns {
			if s.colors[nb.ID] == White {
				s.colors[nb.ID] = Grey
				if usePrune {
					cov.Cover(nb.ID)
				}
			}
		}
	}
	return s.solution(name, r, e.Accesses()-start)
}
