package disc

import (
	"fmt"
	"math"

	"github.com/discdiversity/disc/internal/core"
)

// The extensions sketched in the paper's future-work section: relevance
// integrated with DisC diversity through weights or per-object radii.

// SelectWeighted computes an r-DisC diverse subset that prefers relevant
// objects: candidates are examined in descending weight order, so every
// representative is the heaviest object its neighbourhood could have
// offered. weights must have one entry per indexed object.
func (d *Diversifier) SelectWeighted(r float64, weights []float64) (*Result, error) {
	if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		return nil, fmt.Errorf("disc: invalid radius %g", r)
	}
	// Validate before engineForRadius: a bad weights slice must not pay
	// for a lazy index (re)build (coverage graph or grid).
	if len(weights) != d.Len() {
		return nil, fmt.Errorf("disc: %d weights for %d objects", len(weights), d.Len())
	}
	e, err := d.engineForRadius(r, true)
	if err != nil {
		return nil, err
	}
	sol, err := core.WeightedGreedyDisC(e, r, weights)
	if err != nil {
		return nil, err
	}
	return &Result{div: d, sol: sol}, nil
}

// TotalWeight sums the weights of a result's representatives.
func (r *Result) TotalWeight(weights []float64) float64 {
	return core.TotalWeight(r.sol, weights)
}

// SelectMultiRadius computes a DisC diverse subset under per-object
// radii: more relevant objects can be given smaller radii so their
// regions stay finely represented. Objects p and q count as similar when
// dist(p, q) <= max(radii[p], radii[q]); the result dominates and is
// independent under that relation. Multi-radius results cannot be zoomed
// (the zoom semantics of a radius vector are undefined); recompute with
// scaled radii instead.
func (d *Diversifier) SelectMultiRadius(radii []float64) (*Result, error) {
	// Validate before engineForRadius: a bad radii slice must not pay
	// for a lazy index (re)build (coverage graph or grid).
	if len(radii) != d.Len() {
		return nil, fmt.Errorf("disc: %d radii for %d objects", len(radii), d.Len())
	}
	// An engine prepared for the largest per-object radius answers every
	// smaller one exactly: the coverage graph filters its adjacency
	// lists, the grid scans within its (sufficient) cell ring.
	var rmax float64
	for _, r := range radii {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("disc: invalid radius %g", r)
		}
		if r > rmax {
			rmax = r
		}
	}
	e, err := d.engineForRadius(rmax, true)
	if err != nil {
		return nil, err
	}
	sol, err := core.MultiRadiusDisC(e, radii)
	if err != nil {
		return nil, err
	}
	return &Result{div: d, sol: sol, multiRadii: append([]float64(nil), radii...)}, nil
}

// VerifyMultiRadius checks a SelectMultiRadius result against the
// generalised DisC conditions by direct distance computation.
func (d *Diversifier) VerifyMultiRadius(res *Result) error {
	if res == nil || res.div != d {
		return fmt.Errorf("disc: result does not belong to this diversifier")
	}
	if res.multiRadii == nil {
		return fmt.Errorf("disc: result was not computed with SelectMultiRadius")
	}
	return core.CheckMultiRadiusDisC(d.points, d.metric, res.sol.IDs, res.multiRadii)
}
