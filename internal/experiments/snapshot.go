package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"time"

	disc "github.com/discdiversity/disc"
	"github.com/discdiversity/disc/internal/core"
	"github.com/discdiversity/disc/internal/snap"
	"github.com/discdiversity/disc/internal/stats"
)

// SnapshotBench is the machine-readable result of the "snapshot"
// experiment (its Suite is the BENCH_PR4.json baseline): the cost of a cold
// coverage-graph build versus saving a .discsnap snapshot and
// warm-loading it back, on the canonical perf workload.
type SnapshotBench struct {
	Dataset    string
	N          int
	Dim        int
	Radius     float64
	Seed       uint64
	GoMaxProcs int
	GoVersion  string
	Index      string

	// Edges is the coverage-graph adjacency entry count at Radius;
	// FileBytes the resulting snapshot size.
	Edges     int
	FileBytes int

	// ColdBuildMS rebuilds the engine from raw points (the grid ε-join);
	// SaveMS serialises the prepared diversifier; LoadMS deserialises
	// and rehydrates a ready-to-select diversifier. LoadSpeedup is
	// ColdBuildMS / LoadMS — the factor a warm start saves.
	ColdBuildMS float64
	SaveMS      float64
	LoadMS      float64
	LoadSpeedup float64

	// SelectionsIdentical records the load-vs-fresh conformance check:
	// Greedy-DisC over the loaded engine must pick exactly the fresh
	// engine's subset.
	SelectionsIdentical bool
}

// SnapshotExperiment measures cold-build vs snapshot-save vs warm-load
// for the coverage-graph backend and cross-checks that the loaded
// engine selects identically to the fresh one.
func SnapshotExperiment(cfg Config, datasetName string) (*SnapshotBench, error) {
	w, err := cfg.load(datasetName)
	if err != nil {
		return nil, err
	}
	pts := w.ds.Points
	r := cfg.perfRadius(datasetName)
	workers := cfg.parallelism()

	res := &SnapshotBench{
		Dataset:    datasetName,
		N:          len(pts),
		Dim:        w.ds.Dim(),
		Radius:     r,
		Seed:       cfg.Seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Index:      disc.IndexCoverageGraph.String(),
	}

	// Phase objects are released (niled) before the next phase is timed:
	// every phase allocates tens of MB per iteration, and on one core the
	// GC mark cost of whatever earlier phases keep live would otherwise
	// dominate the later, shorter measurements (warm load does ~10 ms of
	// real work; a retained 50 MB heap adds GC pauses of the same order).

	// Cold build: the grid ε-join from raw points, the cost a process
	// restart pays without a snapshot.
	engine, err := core.BuildParallelGraphEngine(pts, w.metric, r, workers)
	if err != nil {
		return nil, fmt.Errorf("experiments: snapshot: cold build: %w", err)
	}
	coldNs, _, _ := measure(func() {
		engine, err = core.BuildParallelGraphEngine(pts, w.metric, r, workers)
	}, 500*time.Millisecond)
	if err != nil {
		return nil, fmt.Errorf("experiments: snapshot: cold build: %w", err)
	}
	res.ColdBuildMS = float64(coldNs) / 1e6
	engine = nil
	_ = engine

	// Save: prepare a diversifier at r and serialise it.
	div, err := disc.New(pts, disc.WithMetric(w.metric),
		disc.WithIndex(disc.IndexCoverageGraph), disc.WithParallelism(workers))
	if err != nil {
		return nil, fmt.Errorf("experiments: snapshot: %w", err)
	}
	if err := div.Prepare(r); err != nil {
		return nil, fmt.Errorf("experiments: snapshot: %w", err)
	}
	var buf bytes.Buffer
	if err = div.WriteSnapshot(&buf); err != nil {
		return nil, fmt.Errorf("experiments: snapshot: save: %w", err)
	}
	res.FileBytes = buf.Len()
	saveNs, _, _ := measure(func() {
		buf.Reset()
		err = div.WriteSnapshot(&buf)
	}, 500*time.Millisecond)
	if err != nil {
		return nil, fmt.Errorf("experiments: snapshot: save: %w", err)
	}
	res.SaveMS = float64(saveNs) / 1e6

	// Fresh selection for the conformance check, then release the
	// diversifier before timing the load.
	fresh, err := div.Select(r)
	if err != nil {
		return nil, fmt.Errorf("experiments: snapshot: %w", err)
	}
	want := fresh.SortedIDs()
	data := buf.Bytes()
	parsed, err := snap.Read(bytes.NewReader(data))
	if err != nil || parsed.Graph == nil {
		return nil, fmt.Errorf("experiments: snapshot: reparse: %v", err)
	}
	res.Edges = len(parsed.Graph.Nbrs)
	parsed, fresh, div = nil, nil, nil
	_, _, _ = parsed, fresh, div

	// Warm load: decode + rehydrate a ready-to-select diversifier. Each
	// iteration's result is discarded immediately (only `data` stays
	// live in the loop) — a real warm start loads once into a near-empty
	// heap, so retaining past iterations would bill the measurement for
	// GC work no actual boot pays.
	loadNs, _, _ := measure(func() {
		var warm *disc.Diversifier
		warm, err = disc.LoadDiversifier(bytes.NewReader(data))
		_ = warm
	}, 500*time.Millisecond)
	if err != nil {
		return nil, fmt.Errorf("experiments: snapshot: load: %w", err)
	}
	res.LoadMS = float64(loadNs) / 1e6
	if res.LoadMS > 0 {
		res.LoadSpeedup = res.ColdBuildMS / res.LoadMS
	}

	// One unmeasured load feeds the conformance check.
	warm, err := disc.LoadDiversifier(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("experiments: snapshot: load: %w", err)
	}
	loaded, err := warm.Select(r)
	if err != nil {
		return nil, fmt.Errorf("experiments: snapshot: %w", err)
	}
	res.SelectionsIdentical = slices.Equal(want, loaded.SortedIDs())
	return res, nil
}

// Suite renders the snapshot benchmark in the bench row schema.
func (s *SnapshotBench) Suite() Suite {
	return Suite{
		Name:     "snapshot",
		Identity: map[string]any{"dataset": s.Dataset, "n": s.N, "dim": s.Dim, "radius": s.Radius, "seed": s.Seed, "gomaxprocs": s.GoMaxProcs},
		Info:     map[string]string{"go_version": s.GoVersion, "index": s.Index},
		Rows:     s.Rows(),
	}
}

// Rows lists the benchmark's measurements: save and warm load are
// gated as ceilings, the rest is recorded.
func (s *SnapshotBench) Rows() []Row {
	return []Row{
		info("snapshot", "edges", "count", float64(s.Edges)),
		info("snapshot", "file_bytes", "B", float64(s.FileBytes)),
		info("snapshot", "cold_build_ms", "ms", s.ColdBuildMS),
		lower("snapshot", "save_ms", "ms", s.SaveMS),
		lower("snapshot", "load_ms", "ms", s.LoadMS),
		info("snapshot", "load_speedup", "x", s.LoadSpeedup),
		boolRow("snapshot", "selections_identical", s.SelectionsIdentical),
	}
}

// Table renders the snapshot benchmark as a plain-text table.
func (s *SnapshotBench) Table() *stats.Table {
	tab := stats.NewTable(
		fmt.Sprintf("Snapshot warm start — %s (n=%d, r=%g, %s, GOMAXPROCS=%d)",
			s.Dataset, s.N, s.Radius, s.Index, s.GoMaxProcs),
		"phase", "ms", "notes")
	tab.AddRow("cold build", fmt.Sprintf("%.2f", s.ColdBuildMS), fmt.Sprintf("grid ε-join, %d edges", s.Edges))
	tab.AddRow("save", fmt.Sprintf("%.2f", s.SaveMS), fmt.Sprintf("%d bytes", s.FileBytes))
	tab.AddRow("warm load", fmt.Sprintf("%.2f", s.LoadMS), fmt.Sprintf("%.1fx faster than cold build", s.LoadSpeedup))
	tab.AddRow("conformance", "", fmt.Sprintf("selections identical: %v", s.SelectionsIdentical))
	return tab
}
