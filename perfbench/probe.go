package main

import (
	"github.com/discdiversity/disc/internal/telemetry"
)

// Histogram series the probe reads, by index. Each is a series the
// program already registers in telemetry.Default(); the probe only
// reads Count() and Sum(), so it adds no tracing to the program.
const (
	hRouteCreateDataset = iota
	hRouteSelect
	hRouteZoom
	hRouteCreateLive
	hRouteInsert
	hRouteDelete
	hRouteSelection
	hSelectGlobal
	hSelectComponents
	hLiveInsert
	hLiveDelete
	hLiveRepair
	hGridBuild
	hGridJoin
	hGridLabel
	hWALAppend
	hWALFsync
	hWALReplay
	hSnapRead
	hSnapWrite
	nHist
)

var histSeries = [nHist]string{
	hRouteCreateDataset: `disc_http_request_seconds{route="/v1/datasets"}`,
	hRouteSelect:        `disc_http_request_seconds{route="/v1/datasets/{name}/select"}`,
	hRouteZoom:          `disc_http_request_seconds{route="/v1/results/{id}/zoom"}`,
	hRouteCreateLive:    `disc_http_request_seconds{route="/v1/live"}`,
	hRouteInsert:        `disc_http_request_seconds{route="/v1/live/{name}/insert"}`,
	hRouteDelete:        `disc_http_request_seconds{route="/v1/live/{name}/delete"}`,
	hRouteSelection:     `disc_http_request_seconds{route="/v1/live/{name}/selection"}`,
	hSelectGlobal:       `disc_select_seconds{mode="global"}`,
	hSelectComponents:   `disc_select_seconds{mode="components"}`,
	hLiveInsert:         "disc_live_insert_seconds",
	hLiveDelete:         "disc_live_delete_seconds",
	hLiveRepair:         "disc_live_repair_seconds",
	hGridBuild:          "disc_grid_build_seconds",
	hGridJoin:           "disc_grid_join_seconds",
	hGridLabel:          "disc_component_label_seconds",
	hWALAppend:          "disc_wal_append_seconds",
	hWALFsync:           "disc_wal_fsync_seconds",
	hWALReplay:          "disc_wal_replay_seconds",
	hSnapRead:           "disc_snapshot_read_seconds",
	hSnapWrite:          "disc_snapshot_write_seconds",
}

// Counter series the probe reads, by index.
const (
	cWALAppends = iota
	cWALFsyncs
	cWALReplayed
	cRepaired
	cJoinEdges
	cRecoveries
	cRetries
	nCounter
)

var counterSeries = [nCounter]string{
	cWALAppends:  "disc_wal_appends_total",
	cWALFsyncs:   "disc_wal_fsyncs_total",
	cWALReplayed: "disc_wal_replayed_records_total",
	cRepaired:    "disc_live_repaired_components_total",
	cJoinEdges:   "disc_grid_join_edges_total",
	cRecoveries:  "disc_dataset_recoveries_total",
	cRetries:     "disc_dataset_recovery_retries_total",
}

// probe holds the handles of the series above. Registration is
// get-or-create and idempotent, so the handles are the ones the
// instrumented packages observe into.
type probe struct {
	h [nHist]*telemetry.Histogram
	c [nCounter]*telemetry.Counter
}

func newProbe() *probe {
	reg := telemetry.Default()
	p := &probe{}
	for i, name := range histSeries {
		p.h[i] = reg.Histogram(name, "")
	}
	for i, name := range counterSeries {
		p.c[i] = reg.Counter(name, "")
	}
	return p
}

// reading is a point-in-time read of every probed series, or the
// difference of two reads.
type reading struct {
	sum [nHist]int64 // ns
	cnt [nHist]uint64
	ctr [nCounter]uint64
}

func (p *probe) read() reading {
	var r reading
	for i, h := range p.h {
		r.sum[i], r.cnt[i] = h.Sum(), h.Count()
	}
	for i, c := range p.c {
		r.ctr[i] = c.Value()
	}
	return r
}

func (r reading) sub(prev reading) reading {
	for i := range r.sum {
		r.sum[i] -= prev.sum[i]
		r.cnt[i] -= prev.cnt[i]
	}
	for i := range r.ctr {
		r.ctr[i] -= prev.ctr[i]
	}
	return r
}

func (r reading) add(o reading) reading {
	for i := range r.sum {
		r.sum[i] += o.sum[i]
		r.cnt[i] += o.cnt[i]
	}
	for i := range r.ctr {
		r.ctr[i] += o.ctr[i]
	}
	return r
}

// ns returns the summed time of the given series in nanoseconds.
func (r reading) ns(idx ...int) float64 {
	var t int64
	for _, i := range idx {
		t += r.sum[i]
	}
	return float64(t)
}

// mean returns series idx's mean observation in milliseconds, or 0
// when it saw none.
func (r reading) mean(idx int) float64 {
	if r.cnt[idx] == 0 {
		return 0
	}
	return float64(r.sum[idx]) / float64(r.cnt[idx]) / 1e6
}

// Stage families. None of these nests inside another: WAL appends run
// after the core insert/delete returns, replay returns its ops before
// they are applied, and component labelling runs outside the timed
// component select on every path the workloads reach.
func (r reading) core() float64 {
	return r.ns(hSelectGlobal, hSelectComponents, hLiveInsert, hLiveDelete, hLiveRepair)
}
func (r reading) grid() float64 { return r.ns(hGridBuild, hGridJoin, hGridLabel) }
func (r reading) wal() float64  { return r.ns(hWALAppend, hWALReplay) }
func (r reading) snap() float64 { return r.ns(hSnapRead, hSnapWrite) }
