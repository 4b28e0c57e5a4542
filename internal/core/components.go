package core

import (
	"math"

	"github.com/discdiversity/disc/internal/grid"
	"github.com/discdiversity/disc/internal/object"
)

// componentsViaQueries labels the connected components of the r-coverage
// graph over the engine's own range queries — exactly one
// NeighborsAppend per object (into one reused buffer), so the cost
// matches Greedy-DisC's count-initialisation pass and the accesses land
// on the engine's counter like any other query. The traversal and the
// canonical numbering live in grid.ComponentsOf, shared with the
// CSR-backed path, so the decomposition cannot drift between engines.
// It backs the Components implementation of every engine without a
// materialised adjacency.
func componentsViaQueries(e Engine, r float64) *grid.Components {
	var buf []object.Neighbor
	return grid.ComponentsOf(e.Size(), r, func(id int) []object.Neighbor {
		buf = e.NeighborsAppend(buf[:0], id, r)
		return buf
	})
}

// materializeAdjacency builds the exact r-adjacency of the engine's
// objects as a CSR, one range query per object in ascending id order.
// The component-decomposed selection path uses it on engines that hold
// no materialised graph: the queries cost what Greedy-DisC's count
// initialisation would, and afterwards every per-component scan is an
// array walk. ok is false when the adjacency would pass
// AdjacencyBudget (callers fall back to the global path, whose memory
// does not grow with the edge count).
func materializeAdjacency(e Engine, r float64) (csr *grid.CSR, ok bool) {
	n := e.Size()
	limit := min(AdjacencyBudget(n), math.MaxInt32)
	offsets := make([]int32, n+1)
	var nbrs []object.Neighbor
	for id := 0; id < n; id++ {
		nbrs = e.NeighborsAppend(nbrs, id, r)
		if int64(len(nbrs)) > limit {
			return nil, false
		}
		offsets[id+1] = int32(len(nbrs))
	}
	return &grid.CSR{Offsets: offsets, Nbrs: nbrs}, true
}

// adjacencySource is implemented by engines whose materialised coverage
// graph can serve the component-decomposed selection directly, with no
// per-selection materialisation pass.
type adjacencySource interface {
	// AdjacencyCSR returns the exact r-adjacency and true when the
	// engine holds it materialised for exactly this radius.
	AdjacencyCSR(r float64) (*grid.CSR, bool)
}
