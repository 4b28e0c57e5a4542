// Package core implements the paper's algorithms: the DisC heuristics
// (Basic-DisC, the Greedy-DisC family, Greedy-C, Fast-C) and the adaptive
// zooming algorithms (Zoom-In/Out and their greedy variants, plus local
// zooming).
//
// Algorithms are written once against the Engine interface so that the
// same code runs on the exact brute-force FlatEngine (used as a
// correctness reference) and on the M-tree backed TreeEngine (used for
// the paper's node-access experiments). With deterministic tie-breaking
// both engines return identical solutions, which the test suite exploits
// to cross-validate the index.
//
// # Engines and runs
//
// An engine is an immutable index: once built, no query changes it, so
// any number of runs may share one concurrently. Everything a run
// changes lives in its own Run — the cost it has charged, the white set
// the pruning rule filters by, the M-tree's per-node white counts, scan
// scratch — created when the run starts and dropped when it ends.
//
// # Covering loops
//
// The algorithms cover with one of two loops (cover.go), each taking
// its neighbourhood query as a neighborsFunc. coverInOrder is Lemma 1's
// step: it walks a fixed order and selects each object still white when
// reached. Basic-DisC and plain Zoom-In walk the scan order, as does
// plain Zoom-Out's second pass; Weighted-Greedy-DisC walks descending
// weight and the local zoom-out's boundary repair ascending id.
// coverGreedy is the L′ step of Algorithms 1–3: it pops the white object
// with the most white neighbours and hands each pick and its new greys
// to an update that maintains the counts. Greedy-DisC (its update is
// the UpdateStrategy), Greedy-Zoom-In, Greedy-Zoom-Out's second pass,
// multi-radius DisC and the local zoom-in run on it. Greedy-C and
// Fast-C, whose candidates include greys, Zoom-Out's first pass over
// the old representatives, and the runs over the graph's rows
// (GreedyDisCComponents, the live run) keep loops of their own.
//
// Both loops read only white objects, so a run may prune their queries
// without changing a pick. Zoom-Out's second pass always does: its run
// starts tracking coverage when pass one ends, so every query skips the
// objects pass one covered, as pruned Zoom-In's queries skip those the
// previous answer still covers.
//
// # Buffer reuse
//
// Every neighbourhood query (NeighborsAppend, NeighborsWhiteAppend,
// NeighborsBottomUpAppend) appends to a caller-owned buffer and
// allocates nothing once the buffer has grown to the working set's
// high-water mark; a nil buffer gets a fresh slice. The selection and
// zoom algorithms hold one scratch buffer per query role and reuse it
// across iterations, which is what makes their steady-state query
// loops allocation-free. Results appended into a reused buffer are
// invalidated by the next appending call on the same buffer; callers
// that need to retain a neighbourhood must copy it out.
package core

import (
	"github.com/discdiversity/disc/internal/bitset"
	"github.com/discdiversity/disc/internal/grid"
	"github.com/discdiversity/disc/internal/mtree"
	"github.com/discdiversity/disc/internal/object"
)

// Engine abstracts neighbourhood search over a fixed object universe.
// IDs are dense in [0, Size()). Every query charges its cost to the run
// it serves.
type Engine interface {
	// Size returns the number of objects.
	Size() int
	// Metric returns the distance function.
	Metric() object.Metric
	// Point returns the coordinates of object id.
	Point(id int) object.Point
	// NeighborsAppend appends every object within distance r of object
	// id (excluding id itself), with distances, to dst and returns the
	// extended slice. It performs no allocation when dst has sufficient
	// capacity.
	NeighborsAppend(dst []object.Neighbor, id int, r float64, run *Run) []object.Neighbor
	// ScanOrder returns all ids in a locality-preserving order (leaf
	// order for the M-tree, id order for the flat engine).
	ScanOrder(run *Run) []int
}

// CoverageEngine is implemented by engines that support the paper's
// pruning rule: NeighborsWhiteAppend reports only neighbours the run
// still holds white, skipping fully covered regions.
type CoverageEngine interface {
	Engine
	// NeighborsWhiteAppend appends the white objects within distance r
	// of id to dst, pruning fully covered regions. The run must track
	// coverage, as every pruned algorithm run does.
	NeighborsWhiteAppend(dst []object.Neighbor, id int, r float64, run *Run) []object.Neighbor
}

// BottomUpEngine is implemented by engines that can answer neighbourhood
// queries starting from the object's own storage location, optionally
// stopping at the first fully covered ancestor (Fast-C's approximate
// query).
type BottomUpEngine interface {
	Engine
	// NeighborsBottomUpAppend answers NeighborsAppend(dst, id, r, run)
	// bottom-up. With stopAtGrey set, on a run that tracks coverage,
	// the result may be incomplete.
	NeighborsBottomUpAppend(dst []object.Neighbor, id int, r float64, stopAtGrey bool, run *Run) []object.Neighbor
}

// CountingEngine is implemented by engines that computed the initial
// neighbourhood sizes as a side effect of construction (the paper's
// build-time accounting, which it reports saves up to 45% of accesses).
type CountingEngine interface {
	Engine
	// InitialCounts returns |N_r(p)| for every object at the engine's
	// build radius, and that radius. ok is false when counts were not
	// collected during construction.
	InitialCounts() (counts []int, r float64, ok bool)
}

// Run is the state of one algorithm run over one engine: the cost its
// queries charged and, once it tracks coverage, which objects are still
// white. Each run creates its own and drops it when it ends; nothing in
// it is shared, so runs over one engine never contend. The zero value
// is a run that charges cost and does not prune.
type Run struct {
	accesses int64
	// cov is non-nil while the run tracks coverage: white holds the
	// objects not yet covered, and queries may prune by it.
	cov   CoverageEngine
	white bitset.Set
	// tree and nodeWhite are the M-tree's per-node white counts, indexed
	// by node number: counted from white on the run's first pruned tree
	// query, and kept in step by cover from then on.
	tree      *mtree.Tree
	nodeWhite []int32
	// scratch is the grid ring-scan state of the coverage graph's
	// beyond-ceiling queries, made on first use.
	scratch *grid.Scratch
}

// Accesses returns the cost the run's queries charged, in the engine's
// unit: M-tree node accesses, objects examined by the flat engine,
// adjacency entries (and fallback candidates) examined by the coverage
// graph.
func (run *Run) Accesses() int64 { return run.accesses }

// startCoverage makes the run track coverage on e, when e supports the
// pruning rule, and reports whether it does: every object whose colour
// is White starts white (every object when colors is nil).
func (run *Run) startCoverage(e Engine, colors []Color) bool {
	cov, ok := e.(CoverageEngine)
	if !ok {
		return false
	}
	run.cov = cov
	run.white.Reset(e.Size())
	if colors == nil {
		run.white.Fill()
		return true
	}
	for id, c := range colors {
		if c == White {
			run.white.Set(id)
		}
	}
	return true
}

// cover records that id is no longer white (grey or black). It is a
// no-op when the run does not track coverage or id is already covered.
func (run *Run) cover(id int) {
	if run.cov == nil || !run.white.Test(id) {
		return
	}
	run.white.Clear(id)
	if run.tree != nil {
		run.tree.Cover(run.nodeWhite, id)
	}
}

// neighbors is the run's range query: the white neighbours once it
// tracks coverage (the pruning rule), every neighbour otherwise.
func (run *Run) neighbors(e Engine, dst []object.Neighbor, id int, r float64) []object.Neighbor {
	if run.cov != nil {
		return run.cov.NeighborsWhiteAppend(dst, id, r, run)
	}
	return e.NeighborsAppend(dst, id, r, run)
}
