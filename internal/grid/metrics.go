package grid

import "github.com/discdiversity/disc/internal/telemetry"

// Stage timers for the index-build half of the pipeline. Handles are
// resolved once at package init; the instrumented functions only touch
// atomics, so build instrumentation adds no allocations and no locks.
var (
	metBuild = telemetry.Default().Histogram("disc_grid_build_seconds",
		"Wall time of grid construction (counting-sort spatial hash) per Build call.")
	metJoin = telemetry.Default().Histogram("disc_grid_join_seconds",
		"Wall time of the cell-pair epsilon-join producing the CSR coverage graph.")
	metJoinEdges = telemetry.Default().Counter("disc_grid_join_edges_total",
		"Directed coverage-graph edges emitted by epsilon-joins since process start.")
)
