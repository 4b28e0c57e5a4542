package experiments

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	disc "github.com/discdiversity/disc"
	"github.com/discdiversity/disc/internal/stats"
)

// StreamBench is the machine-readable result of the "stream" experiment
// (its Suite is the BENCH_PR6.json baseline): sustained single-threaded
// update throughput and per-operation repair latency of the incremental
// Updater on the canonical perf workload, with per-op convergence
// (every mutation is followed by Flush, so each operation pays its full
// component-scoped repair before the next begins).
type StreamBench struct {
	Dataset    string
	N          int
	Dim        int
	Radius     float64
	Seed       uint64
	GoMaxProcs int
	GoVersion  string

	// Ops mutations are applied after the seed build: ~70% inserts
	// (half jittered near an existing live point to exercise component
	// merging, half uniform) and ~30% deletes of random live objects.
	Ops     int
	Inserts int
	Deletes int

	// SeedBuildMS is the one-time batch pipeline over the N starting
	// points (grid ε-join, labeling, component-decomposed greedy).
	SeedBuildMS float64

	// UpdatesPerSec counts converged operations (mutation + Flush) per
	// wall-clock second; the repair percentiles break out the Flush
	// (repair + publish) portion of each operation.
	UpdatesPerSec float64
	RepairMSP50   float64
	RepairMSP99   float64
	RepairMSMax   float64

	// The WAL rows repeat the converged-update workload against a
	// durable updater (disc.OpenUpdater: every mutation framed, CRC'd
	// and appended to the write-ahead log before it is acknowledged) at
	// two fsync policies, measuring what crash-safety costs on top of
	// the in-memory path. fsync=always is deliberately not benchmarked:
	// it measures the disk's flush latency, not this code.
	WALNoneUpdatesPerSec     float64
	WALIntervalUpdatesPerSec float64

	FinalLive     int
	FinalSelected int

	// EquivalentToRebuild records the end-state conformance check: the
	// incrementally maintained selection must be exactly what a
	// from-scratch component-mode Select over the surviving points
	// computes.
	EquivalentToRebuild bool

	// Telemetry is the in-process metrics view of the measured run: the
	// disc_live_repair_seconds histogram delta over exactly the measured
	// mutations (an instrumented cross-check of the client-side repair
	// percentiles above) and the WAL append/fsync counter movement across
	// the durable runs.
	Telemetry *ExperimentTelemetry
}

// streamOps picks the mutation count: enough to average out repair
// variance at full scale, trimmed in quick mode.
func (c Config) streamOps() int {
	if c.Quick {
		return 300
	}
	return 2000
}

// Stream seeds an Updater with the dataset, applies a mixed
// insert/delete workload with per-operation convergence, and measures
// throughput and repair-latency percentiles.
func Stream(cfg Config, datasetName string) (*StreamBench, error) {
	w, err := cfg.load(datasetName)
	if err != nil {
		return nil, err
	}
	pts := w.ds.Points
	r := cfg.perfRadius(datasetName)
	dim := w.ds.Dim()

	res := &StreamBench{
		Dataset:    datasetName,
		N:          len(pts),
		Dim:        dim,
		Radius:     r,
		Seed:       cfg.Seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Ops:        cfg.streamOps(),
	}

	seedStart := time.Now()
	u, err := disc.NewUpdater(pts, r, disc.WithMetric(w.metric))
	if err != nil {
		return nil, fmt.Errorf("experiments: stream: seed: %w", err)
	}
	res.SeedBuildMS = float64(time.Since(seedStart).Nanoseconds()) / 1e6

	rng := rand.New(rand.NewPCG(cfg.Seed, 0x5eed))
	live := make([]int, len(pts))
	for i := range live {
		live[i] = i
	}
	slots := len(pts)

	repairs := make([]float64, 0, res.Ops)
	probe := newTelemetryProbe()
	runStart := time.Now()
	for op := 0; op < res.Ops; op++ {
		if len(live) == 0 || rng.Float64() < 0.7 {
			p := make(disc.Point, dim)
			if len(live) > 0 && rng.Float64() < 0.5 {
				// Jitter near a live point: lands inside (or adjacent
				// to) an existing component, forcing real repair work.
				src := u.Point(live[rng.IntN(len(live))])
				for i := range p {
					p[i] = src[i] + rng.NormFloat64()*2*r
				}
			} else {
				for i := range p {
					p[i] = rng.Float64()
				}
			}
			id, err := u.Insert(p)
			if err != nil {
				return nil, fmt.Errorf("experiments: stream: insert: %w", err)
			}
			live = append(live, id)
			slots++
			res.Inserts++
		} else {
			k := rng.IntN(len(live))
			if err := u.Delete(live[k]); err != nil {
				return nil, fmt.Errorf("experiments: stream: delete: %w", err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			res.Deletes++
		}
		flushStart := time.Now()
		u.Flush()
		repairs = append(repairs, float64(time.Since(flushStart).Nanoseconds())/1e6)
	}
	elapsed := time.Since(runStart)
	res.UpdatesPerSec = float64(res.Ops) / elapsed.Seconds()

	sort.Float64s(repairs)
	res.RepairMSP50 = percentile(repairs, 0.50)
	res.RepairMSP99 = percentile(repairs, 0.99)
	res.RepairMSMax = repairs[len(repairs)-1]
	res.FinalLive = u.Len()
	res.FinalSelected = u.Size()

	// Read the repair histogram delta now, while it covers exactly the
	// measured mutations — the rebuild check and WAL runs below drive
	// the same series again.
	res.Telemetry = probe.Report()

	equivalent, err := streamRebuildCheck(u, slots, r, w.metric)
	if err != nil {
		return nil, err
	}
	res.EquivalentToRebuild = equivalent

	res.WALNoneUpdatesPerSec, err = streamWALRun(cfg, pts, r, w.metric, disc.FsyncNone)
	if err != nil {
		return nil, err
	}
	res.WALIntervalUpdatesPerSec, err = streamWALRun(cfg, pts, r, w.metric, disc.FsyncInterval)
	if err != nil {
		return nil, err
	}
	// The WAL counters only move during the durable runs; fold their
	// full movement into the report.
	final := probe.Report()
	res.Telemetry.WALAppends = final.WALAppends
	res.Telemetry.WALFsyncs = final.WALFsyncs
	return res, nil
}

// streamWALRun measures converged-update throughput through the
// write-ahead log: the seed points are compacted into a snapshot, a
// durable updater reopens from it under the requested fsync policy,
// and the same mixed workload runs with per-op convergence — each
// acknowledged mutation having first been appended (and, per policy,
// synced) to the log.
func streamWALRun(cfg Config, pts []disc.Point, r float64, m disc.Metric, policy disc.FsyncPolicy) (float64, error) {
	dir, err := os.MkdirTemp("", "disc-stream-wal-*")
	if err != nil {
		return 0, fmt.Errorf("experiments: stream: wal: %w", err)
	}
	defer os.RemoveAll(dir)

	seed, err := disc.NewUpdater(pts, r, disc.WithMetric(m))
	if err != nil {
		return 0, fmt.Errorf("experiments: stream: wal seed: %w", err)
	}
	snapPath := filepath.Join(dir, "stream.discsnap")
	if err := seed.SaveSnapshot(snapPath); err != nil {
		return 0, fmt.Errorf("experiments: stream: wal seed: %w", err)
	}
	u, err := disc.OpenUpdater(snapPath, filepath.Join(dir, "stream.wal"), r,
		disc.WithMetric(m), disc.WithFsync(policy))
	if err != nil {
		return 0, fmt.Errorf("experiments: stream: wal open: %w", err)
	}
	defer u.Close()

	dim := u.Dim()
	ops := cfg.streamOps()
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x5eed))
	live := make([]int, u.Len())
	for i := range live {
		live[i] = i
	}
	runStart := time.Now()
	for op := 0; op < ops; op++ {
		if len(live) == 0 || rng.Float64() < 0.7 {
			p := make(disc.Point, dim)
			if len(live) > 0 && rng.Float64() < 0.5 {
				src := u.Point(live[rng.IntN(len(live))])
				for i := range p {
					p[i] = src[i] + rng.NormFloat64()*2*r
				}
			} else {
				for i := range p {
					p[i] = rng.Float64()
				}
			}
			id, err := u.Insert(p)
			if err != nil {
				return 0, fmt.Errorf("experiments: stream: wal insert: %w", err)
			}
			live = append(live, id)
		} else {
			k := rng.IntN(len(live))
			if err := u.Delete(live[k]); err != nil {
				return 0, fmt.Errorf("experiments: stream: wal delete: %w", err)
			}
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		u.Flush()
	}
	elapsed := time.Since(runStart)
	return float64(ops) / elapsed.Seconds(), nil
}

// streamRebuildCheck re-runs the batch component-mode selection over the
// updater's surviving points and compares it to the incrementally
// maintained one (ids mapped through the monotone live-id order).
func streamRebuildCheck(u *disc.Updater, slots int, r float64, m disc.Metric) (bool, error) {
	var pts []disc.Point
	var liveIDs []int
	for id := 0; id < slots; id++ {
		if u.Alive(id) {
			pts = append(pts, u.Point(id))
			liveIDs = append(liveIDs, id)
		}
	}
	if len(pts) == 0 {
		return u.Size() == 0, nil
	}
	d, err := disc.New(pts, disc.WithIndex(disc.IndexCoverageGraph), disc.WithMetric(m))
	if err != nil {
		return false, fmt.Errorf("experiments: stream: rebuild check: %w", err)
	}
	batch, err := d.Select(r, disc.WithSelectMode(disc.SelectComponents))
	if err != nil {
		return false, fmt.Errorf("experiments: stream: rebuild check: %w", err)
	}
	want := append([]int(nil), batch.IDs()...)
	for i, id := range want {
		want[i] = liveIDs[id]
	}
	sort.Ints(want)
	got := u.Selection()
	if len(got) != len(want) {
		return false, nil
	}
	for i := range got {
		if got[i] != want[i] {
			return false, nil
		}
	}
	return true, nil
}

// percentile returns the p-th percentile (0..1) of ascending-sorted xs
// by nearest-rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(p * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// Suite renders the stream benchmark in the bench row schema.
func (s *StreamBench) Suite() Suite {
	return Suite{
		Name:     "stream",
		Identity: map[string]any{"dataset": s.Dataset, "n": s.N, "dim": s.Dim, "radius": s.Radius, "seed": s.Seed, "gomaxprocs": s.GoMaxProcs},
		Info:     map[string]string{"go_version": s.GoVersion},
		Rows:     s.Rows(),
	}
}

// Rows lists the benchmark's measurements. The three update
// throughputs are floors and the repair p99 a ceiling; the
// equivalence check must hold absolutely, since a throughput number
// means nothing once the maintained selection drifts from a rebuild.
func (s *StreamBench) Rows() []Row {
	rows := []Row{
		info("stream", "ops", "count", float64(s.Ops)),
		info("stream", "inserts", "count", float64(s.Inserts)),
		info("stream", "deletes", "count", float64(s.Deletes)),
		info("stream", "seed_build_ms", "ms", s.SeedBuildMS),
		higher("stream", "updates_per_sec", "1/s", s.UpdatesPerSec),
		info("stream", "repair_ms_p50", "ms", s.RepairMSP50),
		lower("stream", "repair_ms_p99", "ms", s.RepairMSP99),
		info("stream", "repair_ms_max", "ms", s.RepairMSMax),
		higher("stream", "wal_none_updates_per_sec", "1/s", s.WALNoneUpdatesPerSec),
		higher("stream", "wal_interval_updates_per_sec", "1/s", s.WALIntervalUpdatesPerSec),
		info("stream", "final_live", "count", float64(s.FinalLive)),
		info("stream", "final_selected", "count", float64(s.FinalSelected)),
		boolRow("stream", "equivalent_to_rebuild", s.EquivalentToRebuild).atLeast(1),
	}
	return append(rows, telemetryRows(s.Telemetry)...)
}

// Table renders the stream benchmark as a plain-text table.
func (s *StreamBench) Table() *stats.Table {
	tab := stats.NewTable(
		fmt.Sprintf("Incremental updates — %s (n=%d, r=%g, GOMAXPROCS=%d, %d ops: %d ins / %d del)",
			s.Dataset, s.N, s.Radius, s.GoMaxProcs, s.Ops, s.Inserts, s.Deletes),
		"metric", "value", "notes")
	tab.AddRow("seed build", fmt.Sprintf("%.1f ms", s.SeedBuildMS), "batch pipeline over the seed points")
	tab.AddRow("throughput", fmt.Sprintf("%.0f updates/s", s.UpdatesPerSec), "per-op convergence (mutation + Flush)")
	tab.AddRow("throughput (WAL, fsync=none)", fmt.Sprintf("%.0f updates/s", s.WALNoneUpdatesPerSec), "durable updater, log append per op")
	tab.AddRow("throughput (WAL, fsync=interval)", fmt.Sprintf("%.0f updates/s", s.WALIntervalUpdatesPerSec), "durable updater, batched fsync")
	tab.AddRow("repair p50", fmt.Sprintf("%.3f ms", s.RepairMSP50), "")
	tab.AddRow("repair p99", fmt.Sprintf("%.3f ms", s.RepairMSP99), "")
	tab.AddRow("repair max", fmt.Sprintf("%.3f ms", s.RepairMSMax), "")
	tab.AddRow("final state", fmt.Sprintf("%d live / %d selected", s.FinalLive, s.FinalSelected),
		fmt.Sprintf("equivalent to rebuild: %v", s.EquivalentToRebuild))
	if t := s.Telemetry; t != nil {
		tab.AddRow("repair p99 (instrumented)", fmt.Sprintf("%.3f ms", t.RepairP99Ms),
			"disc_live_repair_seconds histogram delta over the measured ops")
		tab.AddRow("WAL appends / fsyncs", fmt.Sprintf("%d / %d", t.WALAppends, t.WALFsyncs),
			"durable runs; the ratio is the fsync batching factor")
	}
	return tab
}
