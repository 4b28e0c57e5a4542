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
	"github.com/discdiversity/disc/internal/object"
)

// Engine abstracts neighbourhood search over a fixed object universe.
// IDs are dense in [0, Size()).
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
	NeighborsAppend(dst []object.Neighbor, id int, r float64) []object.Neighbor
	// ScanOrder returns all ids in a locality-preserving order (leaf
	// order for the M-tree, id order for the flat engine).
	ScanOrder() []int
	// Accesses returns the cumulative cost counter: M-tree node accesses
	// for the tree engine, objects examined for the flat engine.
	Accesses() int64
	// ResetAccesses zeroes the cost counter.
	ResetAccesses()
}

// CoverageEngine is implemented by engines that support the paper's
// pruning rule. Cover(id) informs the engine that id is no longer white;
// NeighborsWhiteAppend then reports only still-white neighbours,
// skipping fully-covered regions.
type CoverageEngine interface {
	Engine
	// StartCoverage (re)initialises coverage state; white[id]==false
	// marks id as already covered. A nil slice means everything is
	// white.
	StartCoverage(white []bool)
	// Cover marks an object as covered (grey or black).
	Cover(id int)
	// IsWhite reports whether id is still uncovered.
	IsWhite(id int) bool
	// NeighborsWhiteAppend appends the white objects within distance r
	// of id to dst, pruning fully covered regions.
	NeighborsWhiteAppend(dst []object.Neighbor, id int, r float64) []object.Neighbor
}

// BottomUpEngine is implemented by engines that can answer neighbourhood
// queries starting from the object's own storage location, optionally
// stopping at the first fully covered ancestor (Fast-C's approximate
// query).
type BottomUpEngine interface {
	Engine
	// NeighborsBottomUpAppend answers NeighborsAppend(dst, id, r)
	// bottom-up. With stopAtGrey set the result may be incomplete.
	NeighborsBottomUpAppend(dst []object.Neighbor, id int, r float64, stopAtGrey bool) []object.Neighbor
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
