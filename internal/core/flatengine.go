package core

import (
	"fmt"

	"github.com/discdiversity/disc/internal/object"
)

// FlatEngine answers neighbourhood queries by scanning the whole point
// set. It is the exact reference implementation the M-tree engine is
// validated against, and is also the right choice for small inputs where
// building an index would dominate. Its cost unit is objects examined,
// so pruning (skipping covered objects) is visible in the cost the same
// way skipped subtrees are for the tree engine.
//
// Coordinates live in a contiguous object.FlatDataset and every scan
// goes through the compiled distance kernel: candidates are filtered on
// the squared-distance surrogate (for Euclidean) and no interface
// dispatch happens per object.
type FlatEngine struct {
	flat *object.FlatDataset
}

var (
	_ Engine         = (*FlatEngine)(nil)
	_ CoverageEngine = (*FlatEngine)(nil)
)

// NewFlatEngine creates a flat engine over pts. The coordinates are
// copied into flat storage; later mutation of pts does not affect the
// engine.
func NewFlatEngine(pts []object.Point, m object.Metric) (*FlatEngine, error) {
	flat, err := object.Flatten(pts, m)
	if err != nil {
		return nil, fmt.Errorf("core: flat engine: %w", err)
	}
	return &FlatEngine{flat: flat}, nil
}

// NewFlatEngineOn creates a flat engine over an existing flat dataset
// (of either precision) without copying coordinates.
func NewFlatEngineOn(flat *object.FlatDataset) *FlatEngine {
	return &FlatEngine{flat: flat}
}

// Size implements Engine.
func (f *FlatEngine) Size() int { return f.flat.Len() }

// Metric implements Engine.
func (f *FlatEngine) Metric() object.Metric { return f.flat.Metric() }

// Point implements Engine.
func (f *FlatEngine) Point(id int) object.Point { return f.flat.Point(id) }

// NeighborsAppend implements Engine by scanning every object.
func (f *FlatEngine) NeighborsAppend(dst []object.Neighbor, id int, r float64, run *Run) []object.Neighbor {
	run.accesses += int64(f.flat.Len())
	return f.flat.AppendRange(dst, f.flat.Row(id), r, id)
}

// ScanOrder implements Engine; the flat engine has no locality structure,
// so the order is plain id order.
func (f *FlatEngine) ScanOrder(*Run) []int { return idOrder(f.flat.Len()) }

// idOrder returns 0, 1, …, n-1.
func idOrder(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// NeighborsWhiteAppend implements CoverageEngine. Covered objects are
// skipped and, analogously to grey M-tree subtrees, not charged as
// accesses.
func (f *FlatEngine) NeighborsWhiteAppend(dst []object.Neighbor, id int, r float64, run *Run) []object.Neighbor {
	return f.flat.AppendRangeWhite(dst, f.flat.Row(id), r, id, &run.white, &run.accesses)
}
