package core

import (
	"fmt"

	"github.com/discdiversity/disc/internal/bitset"
	"github.com/discdiversity/disc/internal/object"
)

// FlatEngine answers neighbourhood queries by scanning the whole point
// set. It is the exact reference implementation the M-tree engine is
// validated against, and is also the right choice for small inputs where
// building an index would dominate. Its access counter counts objects
// examined, so pruning (skipping covered objects) is visible in the cost
// the same way skipped subtrees are for the tree engine.
//
// Coordinates live in a contiguous object.FlatDataset and every scan
// goes through the compiled distance kernel: candidates are filtered on
// the squared-distance surrogate (for Euclidean) and no interface
// dispatch happens per object. The white set is a packed bitset.
type FlatEngine struct {
	flat     *object.FlatDataset
	accesses int64
	white    bitset.Set
	tracking bool
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
func (f *FlatEngine) NeighborsAppend(dst []object.Neighbor, id int, r float64) []object.Neighbor {
	f.accesses += int64(f.flat.Len())
	return f.flat.AppendRange(dst, f.flat.Row(id), r, id)
}

// ScanOrder implements Engine; the flat engine has no locality structure,
// so the order is plain id order.
func (f *FlatEngine) ScanOrder() []int {
	ids := make([]int, f.flat.Len())
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// Accesses implements Engine.
func (f *FlatEngine) Accesses() int64 { return f.accesses }

// ResetAccesses implements Engine.
func (f *FlatEngine) ResetAccesses() { f.accesses = 0 }

// StartCoverage implements CoverageEngine.
func (f *FlatEngine) StartCoverage(white []bool) {
	if white == nil {
		f.white.Reset(f.flat.Len())
		f.white.Fill()
	} else {
		f.white.CopyBools(white)
	}
	f.tracking = true
}

// Cover implements CoverageEngine.
func (f *FlatEngine) Cover(id int) {
	if f.tracking {
		f.white.Clear(id)
	}
}

// IsWhite implements CoverageEngine.
func (f *FlatEngine) IsWhite(id int) bool { return f.tracking && f.white.Test(id) }

// NeighborsWhiteAppend implements CoverageEngine. Covered objects are
// skipped and, analogously to grey M-tree subtrees, not charged as
// accesses. The loop mirrors FlatDataset.AppendRange (fused threshold
// test per candidate, exact recomputation on survivors) with the
// white-bit test and per-object access accounting woven in; it is kept
// inline rather than funnelled through a predicate callback so the
// steady-state query stays allocation-free — keep the two in sync when
// the surrogate protocol changes.
func (f *FlatEngine) NeighborsWhiteAppend(dst []object.Neighbor, id int, r float64) []object.Neighbor {
	if !f.tracking {
		panic("core: NeighborsWhiteAppend without StartCoverage")
	}
	k := f.flat.Kernel()
	rawR := k.RawThreshold(r)
	coords := f.flat.Coords()
	dim := f.flat.Dim()
	q := f.flat.Row(id)
	n := f.flat.Len()
	for j, off := 0, 0; j < n; j, off = j+1, off+dim {
		if !f.white.Test(j) || j == id {
			continue
		}
		f.accesses++
		row := coords[off : off+dim : off+dim]
		if k.Within(q, row, rawR) {
			if d := k.Finish(k.Raw(row, q)); d <= r {
				dst = append(dst, object.Neighbor{ID: j, Dist: d})
			}
		}
	}
	return dst
}
