package core

import (
	"fmt"

	"github.com/discdiversity/disc/internal/mtree"
	"github.com/discdiversity/disc/internal/object"
)

// TreeEngine adapts an M-tree to the Engine interfaces. It is the engine
// used by every experiment in the paper's evaluation: its cost unit is
// M-tree node accesses.
type TreeEngine struct {
	tree       *mtree.Tree
	buildCost  int64
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

// BuildCost returns the node accesses construction performed: the
// inserts, plus the counting range queries of BuildTreeEngineWithCounts
// (0 for NewTreeEngine).
func (te *TreeEngine) BuildCost() int64 { return te.buildCost }

// BuildTreeEngine constructs an M-tree over pts and wraps it.
func BuildTreeEngine(cfg mtree.Config, pts []object.Point) (*TreeEngine, error) {
	t, cost, err := mtree.Build(cfg, pts)
	if err != nil {
		return nil, err
	}
	return &TreeEngine{tree: t, buildCost: cost}, nil
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
	var cost int64
	var buf []object.Neighbor
	for id := range pts {
		acc, err := t.Insert(id)
		if err != nil {
			return nil, err
		}
		cost += acc
		buf = t.AppendRangeQueryAround(buf[:0], id, r, &cost)
		for _, nb := range buf {
			counts[id]++
			counts[nb.ID]++
		}
	}
	return &TreeEngine{tree: t, buildCost: cost, counts: counts, countsR: r, haveCounts: true}, nil
}

// Size implements Engine.
func (te *TreeEngine) Size() int { return te.tree.Len() }

// Metric implements Engine.
func (te *TreeEngine) Metric() object.Metric { return te.tree.Metric() }

// Point implements Engine.
func (te *TreeEngine) Point(id int) object.Point { return te.tree.Point(id) }

// NeighborsAppend implements Engine via a top-down range query.
func (te *TreeEngine) NeighborsAppend(dst []object.Neighbor, id int, r float64, run *Run) []object.Neighbor {
	return te.tree.AppendRangeQueryAround(dst, id, r, &run.accesses)
}

// ScanOrder implements Engine using the linked-leaf chain.
func (te *TreeEngine) ScanOrder(run *Run) []int { return te.tree.ScanIDs(&run.accesses) }

// NeighborsWhiteAppend implements CoverageEngine via the pruned range
// query.
func (te *TreeEngine) NeighborsWhiteAppend(dst []object.Neighbor, id int, r float64, run *Run) []object.Neighbor {
	return te.tree.AppendRangeQueryPruned(dst, id, r, &run.white, te.nodeWhite(run), &run.accesses)
}

// NeighborsBottomUpAppend implements BottomUpEngine. The grey stop
// reads the run's per-node white counts, so it applies only on a run
// that tracks coverage.
func (te *TreeEngine) NeighborsBottomUpAppend(dst []object.Neighbor, id int, r float64, stopAtGrey bool, run *Run) []object.Neighbor {
	var counts []int32
	if run.cov != nil {
		counts = te.nodeWhite(run)
	}
	return te.tree.AppendRangeQueryBottomUp(dst, id, r, stopAtGrey, nil, counts, &run.accesses)
}

// nodeWhite returns the run's per-node white counts over the tree,
// counting them from its white set on first use; the run's cover keeps
// them in step from then on.
func (te *TreeEngine) nodeWhite(run *Run) []int32 {
	if run.tree != te.tree {
		run.tree = te.tree
		run.nodeWhite = te.tree.CountWhite(run.nodeWhite, &run.white)
	}
	return run.nodeWhite
}

// InitialCounts implements CountingEngine.
func (te *TreeEngine) InitialCounts() ([]int, float64, bool) {
	if !te.haveCounts {
		return nil, 0, false
	}
	return te.counts, te.countsR, true
}
