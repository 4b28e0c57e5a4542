package core

import (
	"fmt"
	"runtime"

	"github.com/discdiversity/disc/internal/grid"
	"github.com/discdiversity/disc/internal/object"
)

// CSR exposes the materialised adjacency (read-only), rows sorted by
// (distance, id). Snapshots persist it as is.
func (g *ParallelGraphEngine) CSR() *grid.CSR { return g.csr }

// Grid exposes the grid substrate, nil when the engine was built by the
// flat join (see GridJoined).
func (g *ParallelGraphEngine) Grid() *grid.Grid { return g.hash }

// RehydrateGraphEngine reassembles a ParallelGraphEngine from
// deserialised parts: the coverage-graph CSR joined at radius r over
// flat, and the radius the grid it was joined on was bucketed at — nil
// when the graph was flat-joined, whose beyond-radius fallback queries
// are whole-dataset scans derived from the dataset alone. The grid is
// re-bucketed at exactly *gridR, which can be coarser than r (Rebuild
// keeps a grid whose cells still cover a raised ceiling), so the cell
// order that ScanOrder reports is the writer's. The CSR passes one
// CSR.ValidateByDist pass — a snapshot must never be able to turn into
// out-of-range or repeated adjacency entries — which keeps rows in
// (distance, id) order, the order the engine serves prefixes from and
// static snapshots store, and sorts id-ordered rows (live checkpoints,
// older files) into it; the engine takes ownership of csr. Everything else a
// fresh build derives beyond the join itself (the grid, per-point
// degree counts for CountingEngine, the grid's locality-preserving
// scan order) is recomputed in O(n), which is what makes warm starts
// cheap: the O(n + edges) join is replaced by a contiguous read and
// one validation pass.
func RehydrateGraphEngine(flat *object.FlatDataset, gridR *float64, csr *grid.CSR, r float64, workers int) (*ParallelGraphEngine, error) {
	if flat == nil || csr == nil {
		return nil, fmt.Errorf("core: rehydrate graph engine: missing substrate")
	}
	n := flat.Len()
	if err := csr.ValidateByDist(n, r); err != nil {
		return nil, fmt.Errorf("core: rehydrate graph engine: %w", err)
	}
	var hash *grid.Grid
	var scan []int
	if gridR != nil {
		var err error
		if hash, err = grid.Build(flat, *gridR); err != nil {
			return nil, fmt.Errorf("core: rehydrate graph engine: %w", err)
		}
		if !hash.Covers(r) {
			// Adjacency joined at r must have come from a grid whose
			// cell ring covers r (Join enforces it at build time); a
			// finer grid cannot have produced this CSR.
			return nil, fmt.Errorf("core: rehydrate graph engine: grid bucketed for %g cannot carry a graph joined at %g", *gridR, r)
		}
		scan = hash.ScanOrder()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return newGraph(flat, hash, scan, r, workers, csr, 0), nil
}
