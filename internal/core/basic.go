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
	name := "Basic-DisC"
	s := newColoring(e.Size())
	if pruned && s.run.startCoverage(e, nil) {
		name += " (Pruned)"
	}

	var sc queryScratch
	for _, pi := range e.ScanOrder(&s.run) {
		if s.colors[pi] != White {
			continue
		}
		s.selectBlack(pi)
		sc.ns = s.run.neighbors(e, sc.ns[:0], pi, r)
		for _, nb := range sc.ns {
			if s.colors[nb.ID] == White {
				s.grey(nb.ID)
			}
		}
	}
	return s.solution(name, r)
}
