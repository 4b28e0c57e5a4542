package disc

import (
	"fmt"

	"github.com/discdiversity/disc/internal/core"
)

// ZoomOutVariant selects the strategy Zoom-Out uses to decide which of
// the current representatives survive at the larger radius.
type ZoomOutVariant int

const (
	// ZoomOutGreedyLargest discards many old representatives per kept
	// one (paper variation (a); the recommended default).
	ZoomOutGreedyLargest ZoomOutVariant = iota
	// ZoomOutGreedySmallest maximises the overlap with the previous
	// result (variation (b)).
	ZoomOutGreedySmallest
	// ZoomOutGreedyCoverage keeps the representatives covering the most
	// yet-uncovered objects (variation (c); highest quality, highest
	// cost).
	ZoomOutGreedyCoverage
	// ZoomOutArbitrary processes old representatives in index order:
	// cheapest, slightly larger results.
	ZoomOutArbitrary
)

func (v ZoomOutVariant) toCore() (core.ZoomOutVariant, error) {
	switch v {
	case ZoomOutGreedyLargest:
		return core.ZoomOutGreedyA, nil
	case ZoomOutGreedySmallest:
		return core.ZoomOutGreedyB, nil
	case ZoomOutGreedyCoverage:
		return core.ZoomOutGreedyC, nil
	case ZoomOutArbitrary:
		return core.ZoomOutPlain, nil
	default:
		return 0, fmt.Errorf("disc: unknown zoom-out variant %d", int(v))
	}
}

// ZoomIn adapts res to a smaller radius r < res.Radius(). All current
// representatives are kept (the new selection is a superset) and newly
// uncovered objects are covered greedily, so the refined result stays
// close to what was already shown.
func (d *Diversifier) ZoomIn(res *Result, r float64) (*Result, error) {
	if err := d.own(res); err != nil {
		return nil, err
	}
	e, err := d.engineForRadius(r, false)
	if err != nil {
		return nil, err
	}
	sol, err := core.ZoomIn(e, res.sol, r, true, true)
	if err != nil {
		return nil, err
	}
	return &Result{div: d, sol: sol}, nil
}

// ZoomOut adapts res to a larger radius r > res.Radius(), preferring to
// keep current representatives where the dissimilarity condition allows.
func (d *Diversifier) ZoomOut(res *Result, r float64, variant ZoomOutVariant) (*Result, error) {
	if err := d.own(res); err != nil {
		return nil, err
	}
	cv, err := variant.toCore()
	if err != nil {
		return nil, err
	}
	e, err := d.engineForRadius(r, false)
	if err != nil {
		return nil, err
	}
	sol, err := core.ZoomOut(e, res.sol, r, cv)
	if err != nil {
		return nil, err
	}
	return &Result{div: d, sol: sol}, nil
}

// LocalZoom describes the outcome of a local zoom operation; see
// Diversifier.LocalZoomIn and Diversifier.LocalZoomOut.
type LocalZoom struct {
	// Center is the representative that was zoomed into.
	Center int
	// LocalRadius is the radius now in effect around Center.
	LocalRadius float64
	// Region lists the objects that took part in the local operation.
	Region []int
	// Added lists newly introduced representatives.
	Added []int
	// Removed lists representatives dropped by a local zoom-out.
	Removed []int
	// Representatives is the full updated selection.
	Representatives []int
}

// LocalZoomIn re-diversifies only the neighbourhood of one selected
// representative at a smaller radius r, leaving the rest of the result
// untouched (the paper's local zooming, Figures 1(d) and 2).
func (d *Diversifier) LocalZoomIn(res *Result, center int, r float64) (*LocalZoom, error) {
	if err := d.own(res); err != nil {
		return nil, err
	}
	e, err := d.engineForRadius(r, false)
	if err != nil {
		return nil, err
	}
	lr, err := core.LocalZoomIn(e, res.sol, center, r, true)
	if err != nil {
		return nil, err
	}
	return localZoomFrom(lr), nil
}

// LocalZoomOut coarsens the result around one representative: other
// representatives within r of it are removed and any coverage lost at the
// region boundary is repaired at the original radius.
func (d *Diversifier) LocalZoomOut(res *Result, center int, r float64) (*LocalZoom, error) {
	if err := d.own(res); err != nil {
		return nil, err
	}
	e, err := d.engineForRadius(r, false)
	if err != nil {
		return nil, err
	}
	lr, err := core.LocalZoomOut(e, res.sol, center, r)
	if err != nil {
		return nil, err
	}
	return localZoomFrom(lr), nil
}

func localZoomFrom(lr *core.LocalResult) *LocalZoom {
	return &LocalZoom{
		Center:          lr.Center,
		LocalRadius:     lr.LocalRadius,
		Region:          lr.Region,
		Added:           lr.Added,
		Removed:         lr.Removed,
		Representatives: lr.Final,
	}
}

func (d *Diversifier) own(res *Result) error {
	if res == nil || res.div != d {
		return fmt.Errorf("disc: result does not belong to this diversifier")
	}
	if res.coverageOnly {
		return fmt.Errorf("disc: zooming requires a DisC result, not a coverage-only one")
	}
	if res.multiRadii != nil {
		return fmt.Errorf("disc: multi-radius results cannot be zoomed; recompute with scaled radii")
	}
	return nil
}
