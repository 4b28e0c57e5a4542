package main

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"github.com/discdiversity/disc/internal/experiments"
)

// diffCase is one baseline/current pair and the verdict the guard must
// reach on it. The suites are rendered through the experiments' own
// Rows, so these tests exercise the gating rules where they are
// written.
type diffCase struct {
	name                  string
	base, cur             experiments.Suite
	regressions, warnings int
	// fails lists "subject name" pairs that must appear on a FAIL
	// line; warns lists subjects that must appear on a WARN line.
	fails []string
	warns []string
}

func runDiffCases(t *testing.T, cases []diffCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := sameIdentity(&tc.base, &tc.cur); err != nil {
				t.Fatalf("identity: %v", err)
			}
			var out strings.Builder
			r, w := diff(&out, &tc.base, &tc.cur, 0.25)
			if r != tc.regressions || w != tc.warnings {
				t.Fatalf("regressions=%d warnings=%d, want %d and %d\n%s", r, w, tc.regressions, tc.warnings, out.String())
			}
			for _, f := range tc.fails {
				if !hasLine(out.String(), "FAIL", strings.Fields(f)...) {
					t.Errorf("no FAIL line for %q:\n%s", f, out.String())
				}
			}
			for _, s := range tc.warns {
				if !hasLine(out.String(), "WARN", s) {
					t.Errorf("no WARN line for %q:\n%s", s, out.String())
				}
			}
		})
	}
}

// hasLine reports whether some line of out starts with status and
// contains every word.
func hasLine(out, status string, words ...string) bool {
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, status) {
			continue
		}
		all := true
		for _, w := range words {
			all = all && strings.Contains(line, w)
		}
		if all {
			return true
		}
	}
	return false
}

func perf(engines ...experiments.PerfEngine) experiments.Suite {
	return (&experiments.PerfSnapshot{Dataset: "clustered", N: 100, Dim: 2, Radius: 0.1, Engines: engines}).Suite()
}

func engine(name string, buildMS, selectMS, componentsMS float64) experiments.PerfEngine {
	return experiments.PerfEngine{Engine: name, BuildMS: buildMS, SelectMSOp: selectMS, SelectComponentsMSOp: componentsMS}
}

// TestCompareNewEngineWarnsOnly: rows present in the current run but
// missing from the baseline — a newly added engine — warn once for the
// engine and never fail.
func TestCompareNewEngineWarnsOnly(t *testing.T) {
	runDiffCases(t, []diffCase{{
		name:     "new engine",
		base:     perf(engine("grid", 2, 130, 0)),
		cur:      perf(engine("grid", 2, 130, 0), engine("hyper", 1, 10, 0)),
		warnings: 1,
		warns:    []string{"hyper"},
	}})
}

// TestCompareMissingEngineFails: losing a baseline engine's rows is how
// a regression hides, so it fails, once for the engine.
func TestCompareMissingEngineFails(t *testing.T) {
	runDiffCases(t, []diffCase{{
		name:        "missing engine",
		base:        perf(engine("grid", 2, 130, 0), engine("graph", 60, 65, 0)),
		cur:         perf(engine("grid", 2, 130, 0)),
		regressions: 1,
		fails:       []string{"graph missing"},
	}})
}

// TestCompareRegressionBeyondTolerance: a ceiling row over the limit
// fails; one within it does not.
func TestCompareRegressionBeyondTolerance(t *testing.T) {
	base := perf(engine("grid", 2, 100, 0))
	runDiffCases(t, []diffCase{
		{name: "124 within", base: base, cur: perf(engine("grid", 2, 124, 0))},
		{name: "126 beyond", base: base, cur: perf(engine("grid", 2, 126, 0)),
			regressions: 1, fails: []string{"grid select_ms_op"}},
	})
}

// TestCompareZeroBaselineMetricCannotFail: a metric the baseline lacks
// (zero value — e.g. select_components_ms_op against an older baseline)
// is reported but can never regress.
func TestCompareZeroBaselineMetricCannotFail(t *testing.T) {
	runDiffCases(t, []diffCase{{
		name: "zero baseline",
		base: perf(engine("grid", 2, 100, 0)),
		cur:  perf(engine("grid", 2, 100, 55)),
	}})
}

// TestCompareComponentsSelectGuarded: a component-mode selection
// regression beyond tolerance fails like any other ceiling.
func TestCompareComponentsSelectGuarded(t *testing.T) {
	runDiffCases(t, []diffCase{{
		name:        "component select",
		base:        perf(engine("graph", 60, 60, 15)),
		cur:         perf(engine("graph", 60, 60, 20)),
		regressions: 1,
		fails:       []string{"graph select_components_ms_op"},
	}})
}

func snapshotBench(saveMS, loadMS float64) experiments.Suite {
	return (&experiments.SnapshotBench{Dataset: "clustered", N: 100, Dim: 2, Radius: 0.1, SaveMS: saveMS, LoadMS: loadMS}).Suite()
}

// TestCompareSnapshotBench: the warm-start ceilings obey the same
// tolerance discipline — load regressions fail, improvements and
// within-tolerance drift pass.
func TestCompareSnapshotBench(t *testing.T) {
	base := snapshotBench(5.0, 7.0)
	runDiffCases(t, []diffCase{
		{name: "within", base: base, cur: snapshotBench(6.0, 8.5)},
		{name: "load regression", base: base, cur: snapshotBench(5.0, 9.0),
			regressions: 1, fails: []string{"snapshot load_ms"}},
		{name: "improvement", base: base, cur: snapshotBench(2.0, 3.0)},
	})
}

func serveBench(eps ...experiments.ServeEndpoint) experiments.Suite {
	return (&experiments.ServeBench{N: 2000, Dim: 2, Radius: 0.05, Seed: 42,
		Workers: 4, DurationS: 10, Mix: experiments.DefaultServeMix, Endpoints: eps}).Suite()
}

func serveEP(name string, rps, p99 float64) experiments.ServeEndpoint {
	return experiments.ServeEndpoint{Endpoint: name, Requests: int64(rps * 10), Throughput: rps, P50Ms: p99 / 4, P99Ms: p99}
}

// TestCompareServeBench: per-endpoint throughput is a floor, p99 a
// ceiling; improvements never fail.
func TestCompareServeBench(t *testing.T) {
	base := serveBench(serveEP("select", 100, 20), serveEP("insert", 400, 8))
	runDiffCases(t, []diffCase{
		{name: "within", base: base, cur: serveBench(serveEP("select", 85, 24), serveEP("insert", 350, 9.5))},
		{name: "throughput drop", base: base, cur: serveBench(serveEP("select", 70, 20), serveEP("insert", 400, 8)),
			regressions: 1, fails: []string{"select throughput_rps"}},
		{name: "p99 regression", base: base, cur: serveBench(serveEP("select", 100, 20), serveEP("insert", 400, 11)),
			regressions: 1, fails: []string{"insert p99_ms"}},
		{name: "improvement", base: base, cur: serveBench(serveEP("select", 300, 5), serveEP("insert", 900, 2))},
	})
}

// TestCompareServeRowDiscipline: a baseline endpoint missing from the
// current run fails; a new current-only endpoint warns; endpoint errors
// in the current run always fail.
func TestCompareServeRowDiscipline(t *testing.T) {
	base := serveBench(serveEP("select", 100, 20), serveEP("insert", 400, 8))
	errored := serveEP("insert", 400, 8)
	errored.Errors = 3
	runDiffCases(t, []diffCase{
		{name: "missing endpoint", base: base, cur: serveBench(serveEP("select", 100, 20)),
			regressions: 1, fails: []string{"insert missing"}},
		{name: "new endpoint", base: base,
			cur:      serveBench(serveEP("select", 100, 20), serveEP("insert", 400, 8), serveEP("zoom", 50, 30)),
			warnings: 1, warns: []string{"zoom"}},
		{name: "errored endpoint", base: base, cur: serveBench(serveEP("select", 100, 20), errored),
			regressions: 1, fails: []string{"insert errors"}},
	})
}

// TestCompareServeAvailability: availability is a floor on the
// shortfall from 100%, 100 − (100−b)(1+t) − t; a baseline without the
// field (zero) skips the relative gate instead of gating against
// nothing.
func TestCompareServeAvailability(t *testing.T) {
	avail := func(pct float64) experiments.Suite {
		ep := serveEP("select", 100, 20)
		ep.Availability = pct
		return serveBench(ep)
	}
	base := avail(99.9) // floor 100 − 0.1·1.25 − 0.25 = 99.625
	runDiffCases(t, []diffCase{
		{name: "within", base: base, cur: avail(99.8)},
		{name: "just above floor", base: base, cur: avail(99.63)},
		{name: "just below floor", base: base, cur: avail(99.62),
			regressions: 1, fails: []string{"select availability_pct"}},
		{name: "drop", base: base, cur: avail(90),
			regressions: 1, fails: []string{"select availability_pct"}},
		{name: "zero baseline", base: avail(0), cur: avail(50)},
	})
}

func streamBench(updatesPerSec, p99 float64, equivalent bool) experiments.Suite {
	return (&experiments.StreamBench{Dataset: "clustered", N: 100, Dim: 2, Radius: 0.1,
		UpdatesPerSec: updatesPerSec, RepairMSP99: p99, EquivalentToRebuild: equivalent}).Suite()
}

// TestCompareStreamBench: throughput is a floor (a drop below
// baseline/(1+tol) fails), the repair tail a ceiling, and a run whose
// maintained selection diverged from rebuild always fails.
func TestCompareStreamBench(t *testing.T) {
	base := streamBench(1200, 5.0, true)
	walBase := (&experiments.StreamBench{Dataset: "clustered", N: 100, Dim: 2, Radius: 0.1,
		WALNoneUpdatesPerSec: 1000, WALIntervalUpdatesPerSec: 800, EquivalentToRebuild: true}).Suite()
	walCur := (&experiments.StreamBench{Dataset: "clustered", N: 100, Dim: 2, Radius: 0.1,
		WALNoneUpdatesPerSec: 700, WALIntervalUpdatesPerSec: 700, EquivalentToRebuild: true}).Suite()
	runDiffCases(t, []diffCase{
		{name: "within", base: base, cur: streamBench(1000, 6.0, true)},
		{name: "throughput drop", base: base, cur: streamBench(900, 5.0, true),
			regressions: 1, fails: []string{"stream updates_per_sec"}},
		{name: "repair tail", base: base, cur: streamBench(1200, 7.0, true),
			regressions: 1, fails: []string{"stream repair_ms_p99"}},
		{name: "improvement", base: base, cur: streamBench(2000, 1.0, true)},
		{name: "diverged", base: base, cur: streamBench(2000, 1.0, false),
			regressions: 1, fails: []string{"stream equivalent_to_rebuild"}},
		{name: "wal floors", base: walBase, cur: walCur,
			regressions: 1, fails: []string{"stream wal_none_updates_per_sec"}},
	})
}

// gatedFiles returns the baseline files the Makefile's bench-guard
// recipe passes to benchguard.
func gatedFiles(t *testing.T) []string {
	t.Helper()
	mk, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, m := range regexp.MustCompile(`(BENCH_\w+\.json)=`).FindAllStringSubmatch(string(mk), -1) {
		files = append(files, m[1])
	}
	return files
}

// worsen returns a copy of s with every gated row moved 2x in its bad
// direction (a zero that may only rise becomes 1).
func worsen(s experiments.Suite) experiments.Suite {
	s.Rows = append([]experiments.Row(nil), s.Rows...)
	for i, r := range s.Rows {
		switch {
		case r.Better == experiments.Lower || (r.Better == experiments.None && r.Max != nil):
			s.Rows[i].Value = max(2*r.Value, 1)
		case r.Better == experiments.Higher || (r.Better == experiments.None && r.Min != nil):
			s.Rows[i].Value = r.Value / 2
		}
	}
	return s
}

// TestCheckedInBaselines: every baseline the Makefile gates decodes,
// passes against itself, fails exactly its gated checks when every
// gated row is worsened 2x, and refuses a current run whose identity
// differs in any field.
func TestCheckedInBaselines(t *testing.T) {
	want := map[string]int{"perf": 9, "snapshot": 2, "stream": 5, "highdim": 2, "serve": 15}
	files := gatedFiles(t)
	if len(files) != len(want) {
		t.Fatalf("Makefile gates %v, want one file per suite in %v", files, want)
	}
	total := 0
	for _, file := range files {
		base, err := load("../../" + file)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if r, w := diff(&out, base, base, 0.25); r != 0 || w != 0 {
			t.Errorf("%s against itself: regressions=%d warnings=%d\n%s", file, r, w, out.String())
		}
		out.Reset()
		worse := worsen(*base)
		r, w := diff(&out, base, &worse, 0.25)
		if r != want[base.Name] || w != 0 {
			t.Errorf("%s (%s) worsened 2x: regressions=%d warnings=%d, want %d and 0\n%s",
				file, base.Name, r, w, want[base.Name], out.String())
		}
		total += r
		for k, v := range base.Identity {
			changed := *base
			changed.Identity = map[string]any{}
			for k2, v2 := range base.Identity {
				changed.Identity[k2] = v2
			}
			changed.Identity[k] = []any{v}
			if err := sameIdentity(base, &changed); err == nil {
				t.Errorf("%s: identity change in %q accepted", file, k)
			}
		}
		renamed := *base
		renamed.Name += "-other"
		if err := sameIdentity(base, &renamed); err == nil {
			t.Errorf("%s: suite name change accepted", file)
		}
	}
	if total != 33 {
		t.Errorf("worsened baselines failed %d checks in total, want 33", total)
	}
}
