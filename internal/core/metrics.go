package core

import "github.com/discdiversity/disc/internal/telemetry"

// Stage timers for selection and live maintenance. Handles resolve once
// at package init; the observation calls are atomic adds only, so the
// instrumented wrappers stay outside the 0 alloc/op pinned inner loops
// (runComponentRange, NeighborsAppend) and add nothing to them.
var (
	metSelectGlobal = telemetry.Default().Histogram(`disc_select_seconds{mode="global"}`,
		"Wall time of one greedy DisC selection (global heap or component-decomposed).")
	metSelectComponents = telemetry.Default().Histogram(`disc_select_seconds{mode="components"}`, "")

	metLiveInsert = telemetry.Default().Histogram("disc_live_insert_seconds",
		"Wall time of one LiveDisC insert (grid splice + component merge) or one replayed WAL insert (splice only).")
	metLiveDelete = telemetry.Default().Histogram("disc_live_delete_seconds",
		"Wall time of one LiveDisC delete (unsplice + split re-partition) or one replayed WAL delete (unsplice only).")
	metLiveRepair = telemetry.Default().Histogram("disc_live_repair_seconds",
		"Wall time of one Flush that repaired at least one dirty component, including the one greedy over every component that ends a seed, snapshot load or WAL replay.")
	metLiveRepaired = telemetry.Default().Counter("disc_live_repaired_components_total",
		"Components re-selected by Flush repairs since process start.")
)
