package core

import (
	"fmt"

	"github.com/discdiversity/disc/internal/mtree"
	"github.com/discdiversity/disc/internal/object"
)

// TreeEngine adapts an M-tree to the Engine interfaces. It is the engine
// used by every experiment in the paper's evaluation: its access counter
// reports M-tree node accesses.
type TreeEngine struct {
	tree       *mtree.Tree
	counts     []int
	countsR    float64
	haveCounts bool
}

var (
	_ Engine         = (*TreeEngine)(nil)
	_ CoverageEngine = (*TreeEngine)(nil)
	_ BottomUpEngine = (*TreeEngine)(nil)
	_ CountingEngine = (*TreeEngine)(nil)
)

// NewTreeEngine wraps an already built tree.
func NewTreeEngine(t *mtree.Tree) *TreeEngine { return &TreeEngine{tree: t} }

// Tree exposes the underlying index (for fat-factor measurements etc.).
func (te *TreeEngine) Tree() *mtree.Tree { return te.tree }

// BuildTreeEngine constructs an M-tree over pts and wraps it. The node
// accesses spent building are left on the counter; callers measuring
// query cost only should ResetAccesses first.
func BuildTreeEngine(cfg mtree.Config, pts []object.Point) (*TreeEngine, error) {
	t, err := mtree.Build(cfg, pts)
	if err != nil {
		return nil, err
	}
	return &TreeEngine{tree: t}, nil
}

// BuildTreeEngineWithCounts constructs the tree while simultaneously
// computing |N_r(p)| for every object, the way Section 5.1 of the paper
// initialises Greedy-DisC ("computing the size of neighborhoods while
// building the tree reduces node accesses up to 45%"): each insert of p is
// followed by a range query Q(p, r) whose results increment both p's count
// and the counts of every retrieved neighbour.
func BuildTreeEngineWithCounts(cfg mtree.Config, pts []object.Point, r float64) (*TreeEngine, error) {
	if r < 0 {
		return nil, fmt.Errorf("core: negative radius %g", r)
	}
	t, err := mtree.New(cfg, pts)
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(pts))
	var buf []object.Neighbor
	for id := range pts {
		if err := t.Insert(id); err != nil {
			return nil, err
		}
		buf = t.AppendRangeQueryAround(buf[:0], id, r)
		for _, nb := range buf {
			counts[id]++
			counts[nb.ID]++
		}
	}
	return &TreeEngine{tree: t, counts: counts, countsR: r, haveCounts: true}, nil
}

// Size implements Engine.
func (te *TreeEngine) Size() int { return te.tree.Len() }

// Metric implements Engine.
func (te *TreeEngine) Metric() object.Metric { return te.tree.Metric() }

// Point implements Engine.
func (te *TreeEngine) Point(id int) object.Point { return te.tree.Point(id) }

// NeighborsAppend implements Engine via a top-down range query.
func (te *TreeEngine) NeighborsAppend(dst []object.Neighbor, id int, r float64) []object.Neighbor {
	return te.tree.AppendRangeQueryAround(dst, id, r)
}

// ScanOrder implements Engine using the linked-leaf chain.
func (te *TreeEngine) ScanOrder() []int { return te.tree.ScanIDs() }

// Accesses implements Engine.
func (te *TreeEngine) Accesses() int64 { return te.tree.Accesses() }

// ResetAccesses implements Engine.
func (te *TreeEngine) ResetAccesses() { te.tree.ResetAccesses() }

// StartCoverage implements CoverageEngine.
func (te *TreeEngine) StartCoverage(white []bool) {
	if white == nil {
		te.tree.EnableTracking()
		return
	}
	te.tree.ResetTracking(white)
}

// Cover implements CoverageEngine.
func (te *TreeEngine) Cover(id int) { te.tree.Cover(id) }

// IsWhite implements CoverageEngine.
func (te *TreeEngine) IsWhite(id int) bool { return te.tree.IsWhite(id) }

// NeighborsWhiteAppend implements CoverageEngine via the pruned range
// query.
func (te *TreeEngine) NeighborsWhiteAppend(dst []object.Neighbor, id int, r float64) []object.Neighbor {
	return te.tree.AppendRangeQueryPruned(dst, id, r)
}

// NeighborsBottomUpAppend implements BottomUpEngine.
func (te *TreeEngine) NeighborsBottomUpAppend(dst []object.Neighbor, id int, r float64, stopAtGrey bool) []object.Neighbor {
	return te.tree.AppendRangeQueryBottomUp(dst, id, r, stopAtGrey, false)
}

// InitialCounts implements CountingEngine.
func (te *TreeEngine) InitialCounts() ([]int, float64, bool) {
	if !te.haveCounts {
		return nil, 0, false
	}
	return te.counts, te.countsR, true
}
