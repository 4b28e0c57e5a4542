package core

import "github.com/discdiversity/disc/internal/telemetry"

// Stage timers for selection and live maintenance. Handles resolve once
// at package init; the observation calls are atomic adds only, so the
// instrumented wrappers stay outside the 0 alloc/op pinned inner loops
// (adjGreedy.run, NeighborsAppend) and add nothing to them.
var (
	metSelectGlobal = telemetry.Default().Histogram(`disc_select_seconds{mode="global"}`,
		"Wall time of one greedy DisC selection (the global run over range queries, or the run over the materialised adjacency).")
	metSelectComponents = telemetry.Default().Histogram(`disc_select_seconds{mode="components"}`, "")

	metLiveInsert = telemetry.Default().Histogram("disc_live_insert_seconds",
		"Wall time of one LiveDisC insert (neighbour search + adjacency splice) or one replayed WAL insert (neighbour search + edge record).")
	metLiveDelete = telemetry.Default().Histogram("disc_live_delete_seconds",
		"Wall time of one LiveDisC delete (unsplice + seed queueing) or one replayed WAL delete (tombstone + unbucket).")
	metLiveRepair = telemetry.Default().Histogram("disc_live_repair_seconds",
		"Wall time of one Flush with at least one write pending, including the one full greedy run that ends a seed, snapshot load or WAL replay.")
	metLiveResimulated = telemetry.Default().Counter("disc_live_resimulated_objects_total",
		"Objects re-simulated since process start: those a Flush repair activated, plus every live object of the full greedy run that ends a seed, snapshot load or WAL replay.")
)
