package disc

import (
	"math"

	"github.com/discdiversity/disc/internal/core"
	"github.com/discdiversity/disc/internal/stats"
)

// Result is a computed diverse subset: its ids in pick order, the radius
// and what the run cost. It holds nothing per object; zooms derive what
// they need from the ids. Results are immutable: the zoom methods return
// new Results.
type Result struct {
	div          *Diversifier
	sol          *core.Solution
	coverageOnly bool
	multiRadii   []float64 // non-nil for SelectMultiRadius results
}

// IDs returns the selected objects in selection order (a copy).
func (r *Result) IDs() []int {
	return append([]int(nil), r.sol.IDs...)
}

// SortedIDs returns the selected objects in ascending id order.
func (r *Result) SortedIDs() []int { return r.sol.SortedIDs() }

// Size returns the number of selected objects.
func (r *Result) Size() int { return r.sol.Size() }

// Radius returns the radius the result was computed for.
func (r *Result) Radius() float64 { return r.sol.Radius }

// Algorithm returns the name of the heuristic that produced the result.
func (r *Result) Algorithm() string { return r.sol.Algorithm }

// Accesses returns the index cost consumed computing this result, in
// the backend's own unit: tree node accesses for IndexMTree, objects
// examined for IndexLinearScan, and adjacency entries examined (plus
// candidates examined on fallback scans beyond the build radius) for
// IndexCoverageGraph. Compare across backends with that caveat.
func (r *Result) Accesses() int64 { return r.sol.Accesses }

// Contains reports whether object id was selected, scanning the ids.
func (r *Result) Contains(id int) bool { return r.sol.Contains(id) }

// Points returns the coordinates of the selected objects, in selection
// order.
func (r *Result) Points() []Point {
	pts := make([]Point, 0, r.sol.Size())
	for _, id := range r.sol.IDs {
		pts = append(pts, r.div.points[id])
	}
	return pts
}

// CoverageOnly reports whether the result only guarantees coverage (an
// r-C subset from AlgorithmCoverage / AlgorithmFastCoverage) rather than
// full DisC diversity.
func (r *Result) CoverageOnly() bool { return r.coverageOnly }

// DistanceToRepresentative returns the distance from object id to its
// closest representative (0 if id is itself selected). The result keeps
// only its ids, so each call computes the exact value from them: one
// distance per selected object.
func (r *Result) DistanceToRepresentative(id int) float64 {
	p := r.div.points[id]
	best := math.Inf(1)
	for _, b := range r.sol.IDs {
		if b == id {
			return 0
		}
		best = min(best, r.div.metric.Dist(p, r.div.points[b]))
	}
	return best
}

// Jaccard returns the Jaccard distance between the selections of two
// results: 0 for identical sets, 1 for disjoint ones.
func (r *Result) Jaccard(other *Result) float64 {
	return stats.Jaccard(r.sol.IDs, other.sol.IDs)
}
