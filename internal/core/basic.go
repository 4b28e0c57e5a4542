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

	coverInOrder(s, e.ScanOrder(&s.run), within(e, r))
	return s.solution(name, r)
}
