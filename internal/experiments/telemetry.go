package experiments

import (
	"github.com/discdiversity/disc/internal/telemetry"
)

// ExperimentTelemetry is the in-process metrics view of one measured
// experiment phase: quantiles and counts read from the process-wide
// telemetry registry (the same series GET /metrics exposes) as deltas
// over the phase, so the numbers cover exactly the experiment's own
// work even when earlier phases in the same process already moved the
// metrics. Zero fields get no row, so a suite only carries the series
// its experiment actually drove.
type ExperimentTelemetry struct {
	// The live-repair histogram (disc_live_repair_seconds) over the
	// measured mutations, plus the repaired-component counter — the
	// instrumented view of the same Flush calls the client-side repair
	// percentiles time from outside.
	RepairP50Ms        float64
	RepairP99Ms        float64
	Repairs            uint64
	RepairedComponents uint64

	// WAL counter deltas (disc_wal_appends_total /
	// disc_wal_fsyncs_total); their ratio is the fsync batching factor.
	WALAppends uint64
	WALFsyncs  uint64

	// Selection and grid-build histograms over the measured phase
	// (disc_select_seconds by mode, disc_grid_build_seconds).
	SelectP50Ms           float64
	SelectP99Ms           float64
	SelectComponentsP50Ms float64
	SelectComponentsP99Ms float64
	GridBuildP50Ms        float64
	GridBuildP99Ms        float64
}

// telemetryProbe captures the registry state at the start of a measured
// phase; Report reads it again and returns the delta. Handles are
// fetched get-or-create, so the probe works even for series the
// instrumented packages have not touched yet (their deltas stay zero).
type telemetryProbe struct {
	repairH, selG, selC, buildH   *telemetry.Histogram
	appendC, fsyncC, repairedC    *telemetry.Counter
	repair0, selG0, selC0, build0 telemetry.HistSnapshot
	appends0, fsyncs0, repaired0  uint64
}

// newTelemetryProbe snapshots the relevant series of the process-wide
// registry.
func newTelemetryProbe() *telemetryProbe {
	reg := telemetry.Default()
	p := &telemetryProbe{
		repairH:   reg.Histogram("disc_live_repair_seconds", ""),
		selG:      reg.Histogram(`disc_select_seconds{mode="global"}`, ""),
		selC:      reg.Histogram(`disc_select_seconds{mode="components"}`, ""),
		buildH:    reg.Histogram("disc_grid_build_seconds", ""),
		appendC:   reg.Counter("disc_wal_appends_total", ""),
		fsyncC:    reg.Counter("disc_wal_fsyncs_total", ""),
		repairedC: reg.Counter("disc_live_repaired_components_total", ""),
	}
	p.repair0 = p.repairH.Snapshot()
	p.selG0 = p.selG.Snapshot()
	p.selC0 = p.selC.Snapshot()
	p.build0 = p.buildH.Snapshot()
	p.appends0 = p.appendC.Value()
	p.fsyncs0 = p.fsyncC.Value()
	p.repaired0 = p.repairedC.Value()
	return p
}

// msQuantile renders a histogram-delta quantile in milliseconds; an
// empty delta reads as 0 so its row is left out.
func msQuantile(d telemetry.HistSnapshot, q float64) float64 {
	if d.Count == 0 {
		return 0
	}
	return float64(d.Quantile(q)) / 1e6
}

// Report returns the registry movement since the probe was taken.
func (p *telemetryProbe) Report() *ExperimentTelemetry {
	repair := p.repairH.Snapshot().Sub(p.repair0)
	selG := p.selG.Snapshot().Sub(p.selG0)
	selC := p.selC.Snapshot().Sub(p.selC0)
	build := p.buildH.Snapshot().Sub(p.build0)
	return &ExperimentTelemetry{
		RepairP50Ms:        msQuantile(repair, 0.50),
		RepairP99Ms:        msQuantile(repair, 0.99),
		Repairs:            repair.Count,
		RepairedComponents: p.repairedC.Value() - p.repaired0,
		WALAppends:         p.appendC.Value() - p.appends0,
		WALFsyncs:          p.fsyncC.Value() - p.fsyncs0,

		SelectP50Ms:           msQuantile(selG, 0.50),
		SelectP99Ms:           msQuantile(selG, 0.99),
		SelectComponentsP50Ms: msQuantile(selC, 0.50),
		SelectComponentsP99Ms: msQuantile(selC, 0.99),
		GridBuildP50Ms:        msQuantile(build, 0.50),
		GridBuildP99Ms:        msQuantile(build, 0.99),
	}
}
