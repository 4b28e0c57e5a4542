package experiments

import (
	"encoding/json"
	"io"
)

// Suite is the one JSON shape every benchmark suite emits (discbench
// -format=json for perf, snapshot, stream and highdim; discload -out
// for serve) and cmd/benchguard diffs. Identity names the measured
// workload, GOMAXPROCS included since wall-clock loses meaning when
// parallelism changes: two documents are comparable only when their
// suite names and identities are equal. Info carries provenance
// (toolchain, algorithm) that is recorded but never compared. Rows are
// the measurements, each carrying its own gating rule.
type Suite struct {
	Name     string            `json:"suite"`
	Identity map[string]any    `json:"identity"`
	Info     map[string]string `json:"info,omitempty"`
	Rows     []Row             `json:"rows"`
}

// Row is one measurement. Better says which way it may not regress:
// a Lower row may not rise more than the tolerance above its baseline,
// a Higher row may not fall below baseline/(1+tolerance), and a None
// row is recorded only. A Higher row with a Max (a bounded metric such
// as an availability percentage) is instead gated on its shortfall
// from that bound, which may grow by the tolerance plus an absolute
// slack of tolerance% of the bound, so a perfect baseline does not
// demand a perfect run. Relative gates skip a zero baseline (a metric
// the baseline predates). Min and Max are absolute bounds on the
// current value. benchguard applies the rules recorded in the
// baseline row, so a checked-in baseline pins its own gates.
type Row struct {
	Subject string   `json:"subject"`
	Name    string   `json:"name"`
	Unit    string   `json:"unit"`
	Better  string   `json:"better"`
	Value   float64  `json:"value"`
	Min     *float64 `json:"min,omitempty"`
	Max     *float64 `json:"max,omitempty"`
}

// The Better directions.
const (
	Lower  = "lower"
	Higher = "higher"
	None   = "none"
)

// lower, higher and info build a row of each direction; boolRow
// records a check as 1 or 0; atLeast and atMost add absolute bounds.
func lower(subject, name, unit string, v float64) Row {
	return Row{Subject: subject, Name: name, Unit: unit, Better: Lower, Value: v}
}

func higher(subject, name, unit string, v float64) Row {
	return Row{Subject: subject, Name: name, Unit: unit, Better: Higher, Value: v}
}

func info(subject, name, unit string, v float64) Row {
	return Row{Subject: subject, Name: name, Unit: unit, Better: None, Value: v}
}

func boolRow(subject, name string, v bool) Row {
	if v {
		return info(subject, name, "bool", 1)
	}
	return info(subject, name, "bool", 0)
}

func (r Row) atLeast(v float64) Row { r.Min = &v; return r }

func (r Row) atMost(v float64) Row { r.Max = &v; return r }

// WriteJSON renders the suite as indented JSON.
func (s Suite) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// telemetryRows records the nonzero series of an experiment's
// in-process metrics view; none are gated.
func telemetryRows(t *ExperimentTelemetry) []Row {
	if t == nil {
		return nil
	}
	var rows []Row
	for _, r := range []Row{
		info("telemetry", "repair_ms_p50", "ms", t.RepairP50Ms),
		info("telemetry", "repair_ms_p99", "ms", t.RepairP99Ms),
		info("telemetry", "repairs", "count", float64(t.Repairs)),
		info("telemetry", "resimulated_objects", "count", float64(t.ResimulatedObjects)),
		info("telemetry", "wal_appends", "count", float64(t.WALAppends)),
		info("telemetry", "wal_fsyncs", "count", float64(t.WALFsyncs)),
		info("telemetry", "select_ms_p50", "ms", t.SelectP50Ms),
		info("telemetry", "select_ms_p99", "ms", t.SelectP99Ms),
		info("telemetry", "select_components_ms_p50", "ms", t.SelectComponentsP50Ms),
		info("telemetry", "select_components_ms_p99", "ms", t.SelectComponentsP99Ms),
		info("telemetry", "grid_build_ms_p50", "ms", t.GridBuildP50Ms),
		info("telemetry", "grid_build_ms_p99", "ms", t.GridBuildP99Ms),
	} {
		if r.Value != 0 {
			rows = append(rows, r)
		}
	}
	return rows
}
