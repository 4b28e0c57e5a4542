package experiments

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/discdiversity/disc/internal/stats"
)

func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Quick = true
	cfg.N = 800
	return cfg
}

func TestEnginesExperimentSizesAgree(t *testing.T) {
	cfg := quickConfig()
	cfg.Parallelism = 4
	tab, err := Engines(cfg, "clustered")
	if err != nil {
		t.Fatal(err)
	}
	// 3 engines x 3 quick radii; the greedy solution size at a given
	// radius must be identical on every engine (deterministic greedy).
	if len(tab.Rows) != 9 {
		t.Fatalf("expected 9 rows, got %d", len(tab.Rows))
	}
	sizeAt := map[string]string{}
	for _, row := range tab.Rows {
		key := row[1] // radius column
		if want, ok := sizeAt[key]; ok && row[2] != want {
			t.Errorf("engine %s at r=%s: size %s, other engines got %s", row[0], key, row[2], want)
		} else {
			sizeAt[key] = row[2]
		}
	}
}

func TestRadiiPerDataset(t *testing.T) {
	if got := Radii("uniform"); len(got) != 7 || got[0] != 0.01 || got[6] != 0.07 {
		t.Errorf("uniform radii %v", got)
	}
	if got := Radii("cities"); len(got) != 7 || got[0] != 0.001 {
		t.Errorf("cities radii %v", got)
	}
	if got := Radii("cameras"); len(got) != 6 || got[0] != 1 || got[5] != 6 {
		t.Errorf("cameras radii %v", got)
	}
}

func TestTable3ShapeMatchesPaper(t *testing.T) {
	cfg := quickConfig()
	tab, err := Table3(cfg, "clustered")
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("expected 5 algorithm rows, got %d", len(tab.Rows))
	}
	// Paper-shape assertions: sizes decrease with the radius for every
	// algorithm, and Greedy-DisC never exceeds Basic-DisC.
	sizes := parseIntRows(t, tab)
	for alg, row := range sizes {
		for i := 1; i < len(row); i++ {
			if row[i] > row[i-1] {
				t.Errorf("row %d: size grew with radius: %v", alg, row)
			}
		}
	}
	for i := range sizes[0] {
		if sizes[1][i] > sizes[0][i] {
			t.Errorf("G-DisC (%d) larger than B-DisC (%d) at column %d", sizes[1][i], sizes[0][i], i)
		}
	}
}

func parseIntRows(t *testing.T, tab *stats.Table) [][]int {
	t.Helper()
	out := make([][]int, len(tab.Rows))
	for i, row := range tab.Rows {
		for _, cell := range row[1:] {
			v, err := strconv.Atoi(cell)
			if err != nil {
				t.Fatalf("row %d: parse %q: %v", i, cell, err)
			}
			out[i] = append(out[i], v)
		}
	}
	return out
}

func TestFig7PruningHelps(t *testing.T) {
	cfg := quickConfig()
	tab, err := Fig7(cfg, "clustered")
	if err != nil {
		t.Fatal(err)
	}
	// Columns: radius, B-DisC, B-DisC (P), Gr-G-DisC, Gr-G-DisC (P), G-C.
	if len(tab.Headers) != 6 {
		t.Fatalf("headers %v", tab.Headers)
	}
	for _, row := range tab.Rows {
		basic := atof(t, row[1])
		basicP := atof(t, row[2])
		greedy := atof(t, row[3])
		greedyP := atof(t, row[4])
		if basicP > basic {
			t.Errorf("pruned Basic-DisC costlier than unpruned: %v", row)
		}
		if greedyP > greedy {
			t.Errorf("pruned Greedy-DisC costlier than unpruned: %v", row)
		}
		if basic > greedy {
			t.Errorf("Basic-DisC costlier than Greedy-DisC (paper has the opposite): %v", row)
		}
	}
}

func TestFig9CardinalitySizesGrow(t *testing.T) {
	cfg := quickConfig()
	tabs, err := Fig9Cardinality(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 2 {
		t.Fatalf("expected 2 tables")
	}
	sizeTab := tabs[0]
	// For the smallest radius (first series column), size must grow with
	// cardinality.
	first := atof(t, sizeTab.Rows[0][1])
	last := atof(t, sizeTab.Rows[len(sizeTab.Rows)-1][1])
	if last <= first {
		t.Errorf("solution size did not grow with cardinality: %v -> %v", first, last)
	}
}

func TestFig9DimensionalitySizesGrow(t *testing.T) {
	cfg := quickConfig()
	tabs, err := Fig9Dimensionality(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sizeTab := tabs[0]
	first := atof(t, sizeTab.Rows[0][1])
	last := atof(t, sizeTab.Rows[len(sizeTab.Rows)-1][1])
	if last <= first {
		t.Errorf("solution size did not grow with dimensionality (curse of dimensionality): %v -> %v", first, last)
	}
}

func TestFig10FatFactorOrdering(t *testing.T) {
	cfg := quickConfig()
	tab, err := Fig10(cfg, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	// Series are labelled f=<fat>; MinOverlap must come first with the
	// lowest fat-factor.
	if len(tab.Headers) != 5 {
		t.Fatalf("headers %v", tab.Headers)
	}
	fats := make([]float64, 0, 4)
	for _, h := range tab.Headers[1:] {
		fats = append(fats, atof(t, strings.TrimPrefix(h, "f=")))
	}
	for i := 1; i < len(fats); i++ {
		if fats[0] > fats[i] {
			t.Errorf("MinOverlap fat-factor %g not the lowest: %v", fats[0], fats)
		}
	}
}

func TestZoomInCheaperAndCloser(t *testing.T) {
	cfg := quickConfig()
	tabs, err := ZoomIn(cfg, "clustered")
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 3 {
		t.Fatalf("expected 3 tables")
	}
	accTab, jacTab := tabs[1], tabs[2]
	for _, row := range accTab.Rows {
		scratch := atof(t, row[1])
		zoom := atof(t, row[2])
		if zoom >= scratch {
			t.Errorf("zoom-in not cheaper than from scratch: %v", row)
		}
	}
	for _, row := range jacTab.Rows {
		scratch := atof(t, row[1])
		zoom := atof(t, row[2])
		greedy := atof(t, row[3])
		if zoom > scratch || greedy > scratch {
			t.Errorf("zoomed solution farther from S^r than from-scratch: %v", row)
		}
	}
}

func TestZoomOutCloserThanScratch(t *testing.T) {
	cfg := quickConfig()
	tabs, err := ZoomOut(cfg, "clustered")
	if err != nil {
		t.Fatal(err)
	}
	jacTab := tabs[2]
	for _, row := range jacTab.Rows {
		scratch := atof(t, row[1])
		for col := 2; col < len(row); col++ {
			if atof(t, row[col]) > scratch {
				t.Errorf("zoom-out variant (col %d) farther from S^r than scratch: %v", col, row)
			}
		}
	}
}

func TestFig6CoverageClaims(t *testing.T) {
	cfg := quickConfig()
	res, err := Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.K <= 0 || len(res.Selections) != 5 {
		t.Fatalf("unexpected result: k=%d models=%d", res.K, len(res.Selections))
	}
	// Every model selects (at most) k objects; DisC exactly k.
	for name, ids := range res.Selections {
		if len(ids) == 0 || len(ids) > res.K {
			t.Errorf("%s selected %d of k=%d", name, len(ids), res.K)
		}
	}
	// Paper claim: DisC covers everything at r; MaxSum does not.
	rows := res.Table.Rows
	var discCov, maxsumCov float64
	for _, row := range rows {
		switch row[0] {
		case "r-DisC":
			discCov = atof(t, row[2])
		case "MaxSum":
			maxsumCov = atof(t, row[2])
		}
	}
	if discCov != 1 {
		t.Errorf("DisC coverage %g, want 1", discCov)
	}
	if maxsumCov >= discCov {
		t.Errorf("MaxSum coverage %g not below DisC's %g", maxsumCov, discCov)
	}
}

func TestAblationRunners(t *testing.T) {
	cfg := quickConfig()
	if _, err := Capacity(cfg); err != nil {
		t.Errorf("capacity: %v", err)
	}
	tab, err := FastCAblation(cfg, "clustered")
	if err != nil {
		t.Fatalf("fastc: %v", err)
	}
	for _, row := range tab.Rows {
		gcAcc := atof(t, row[3])
		fcAcc := atof(t, row[4])
		if fcAcc > gcAcc {
			t.Errorf("Fast-C costlier than Greedy-C: %v", row)
		}
	}
	if _, err := BottomUp(cfg, "clustered"); err != nil {
		t.Errorf("bottomup: %v", err)
	}
	bi, err := BuildInit(cfg, "clustered")
	if err != nil {
		t.Fatalf("buildinit: %v", err)
	}
	for _, row := range bi.Rows {
		during := atof(t, row[1])
		after := atof(t, row[2])
		if during > after {
			t.Errorf("during-build accounting costlier than after-build: %v", row)
		}
	}
}

func TestHighDimQuickShape(t *testing.T) {
	cfg := quickConfig()
	res, err := HighDim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Joins) != 2 {
		t.Fatalf("expected euclidean and cosine join rows, got %d", len(res.Joins))
	}
	for _, j := range res.Joins {
		if j.ScalarBuildMS <= 0 || j.BatchBuildMS <= 0 || j.Batch32BuildMS <= 0 {
			t.Errorf("%s: non-positive build time: %+v", j.Metric, j)
		}
		if j.Speedup <= 0 || j.Speedup32 <= 0 {
			t.Errorf("%s: missing speedup ratios: %+v", j.Metric, j)
		}
		if j.SolutionSize <= 0 {
			t.Errorf("%s: empty selection", j.Metric)
		}
	}
	// Quick mode sweeps 2 kernel dims x 2 metrics.
	if len(res.Kernels) != 4 {
		t.Fatalf("expected 4 kernel rows, got %d", len(res.Kernels))
	}
	if len(res.Crossover) != 3 {
		t.Fatalf("expected 3 crossover rows, got %d", len(res.Crossover))
	}
	if res.UpdateMSOp <= 0 || res.UpdateN <= 0 {
		t.Errorf("update measurement missing: n=%d %f ms/op", res.UpdateN, res.UpdateMSOp)
	}
	if len(res.Tables()) != 3 {
		t.Errorf("expected 3 text tables")
	}
	checkSuite(t, res.Suite())
}

// checkSuite asserts the bench row schema's invariants: a named suite
// with an identity, rows keyed uniquely by subject and name (benchguard
// matches rows on that key), and a known direction and a unit on every
// row.
func checkSuite(t *testing.T, s Suite) {
	t.Helper()
	if s.Name == "" || len(s.Identity) == 0 || len(s.Rows) == 0 {
		t.Fatalf("suite %q: empty name, identity or rows", s.Name)
	}
	seen := map[[2]string]bool{}
	for _, r := range s.Rows {
		k := [2]string{r.Subject, r.Name}
		if seen[k] {
			t.Errorf("suite %s: duplicate row %v", s.Name, k)
		}
		seen[k] = true
		if r.Better != Lower && r.Better != Higher && r.Better != None {
			t.Errorf("suite %s: row %v: better %q", s.Name, k, r.Better)
		}
		if r.Subject == "" || r.Name == "" || r.Unit == "" {
			t.Errorf("suite %s: row %+v lacks a subject, name or unit", s.Name, r)
		}
	}
}

// TestSuiteGates pins where every gate is written: each suite's Rows
// carry exactly these rules (subject, name, direction and absolute
// bounds), and every other row is recorded only.
func TestSuiteGates(t *testing.T) {
	tel := &ExperimentTelemetry{RepairP99Ms: 1, WALAppends: 4, SelectP50Ms: 2}
	for _, tc := range []struct {
		suite Suite
		gates []string
	}{
		{(&PerfSnapshot{Dataset: "clustered", N: 10, Telemetry: tel, Engines: []PerfEngine{{Engine: "grid"}}}).Suite(),
			[]string{"grid/build_ms lower", "grid/select_ms_op lower", "grid/select_components_ms_op lower"}},
		{(&SnapshotBench{Dataset: "clustered", N: 10}).Suite(),
			[]string{"snapshot/save_ms lower", "snapshot/load_ms lower"}},
		{(&StreamBench{Dataset: "clustered", N: 10, Telemetry: tel}).Suite(),
			[]string{"stream/updates_per_sec higher", "stream/repair_ms_p99 lower", "stream/wal_none_updates_per_sec higher",
				"stream/wal_interval_updates_per_sec higher", "stream/equivalent_to_rebuild none min=1"}},
		{(&HighDimBench{Dataset: "sphere", N: 10, Joins: []HighDimJoin{{Metric: "cosine"}},
			Kernels: []HighDimKernel{{Dim: 64, Metric: "cosine"}}, Crossover: []HighDimCrossover{{Dim: 2}}}).Suite(),
			[]string{"cosine/speedup higher min=2"}},
		{(&ServeBench{N: 10, Mix: DefaultServeMix, Server: &ServeMetricsDelta{Requests: 3},
			Endpoints: []ServeEndpoint{{Endpoint: "select"}}}).Suite(),
			[]string{"select/errors none max=0", "select/availability_pct higher max=100", "select/throughput_rps higher", "select/p99_ms lower"}},
	} {
		checkSuite(t, tc.suite)
		var gates []string
		for _, r := range tc.suite.Rows {
			if r.Better == None && r.Min == nil && r.Max == nil {
				continue
			}
			g := r.Subject + "/" + r.Name + " " + r.Better
			if r.Min != nil {
				g += " min=" + strconv.FormatFloat(*r.Min, 'g', -1, 64)
			}
			if r.Max != nil {
				g += " max=" + strconv.FormatFloat(*r.Max, 'g', -1, 64)
			}
			gates = append(gates, g)
		}
		slices.Sort(gates)
		slices.Sort(tc.gates)
		if !slices.Equal(gates, tc.gates) {
			t.Errorf("suite %s gates %q, want %q", tc.suite.Name, gates, tc.gates)
		}
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != len(Registry) {
		t.Fatal("Names incomplete")
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Fatal("Names not sorted")
		}
	}
	if err := Run("nope", quickConfig()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunExperimentSmoke(t *testing.T) {
	// End-to-end through the registry with output capture.
	cfg := quickConfig()
	var buf bytes.Buffer
	cfg.Out = &buf
	if err := Run("table3", cfg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table 3") {
		t.Error("missing table output")
	}
}

func atof(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}
