package disc

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"github.com/discdiversity/disc/internal/core"
	"github.com/discdiversity/disc/internal/object"
	"github.com/discdiversity/disc/internal/snap"
	"github.com/discdiversity/disc/internal/vfs"
	"github.com/discdiversity/disc/internal/wal"
)

// FsyncPolicy selects when a durable Updater's write-ahead log fsyncs
// acknowledged operations. See docs/DURABILITY.md for the guarantee
// each policy buys.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs before acknowledging every mutation: an
	// acknowledged op survives any crash, including power loss.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval batches fsyncs on a timer (WithFsyncInterval): a
	// crash loses at most the ops acknowledged since the last sync.
	FsyncInterval
	// FsyncNone never fsyncs on the mutation path: a process crash
	// loses nothing (the kernel holds the writes), a machine crash can
	// lose anything since the last checkpoint.
	FsyncNone
)

// String returns the flag-friendly name ("always", "interval", "none").
func (p FsyncPolicy) String() string { return p.walMode().String() }

func (p FsyncPolicy) walMode() wal.SyncMode {
	switch p {
	case FsyncInterval:
		return wal.SyncBatched
	case FsyncNone:
		return wal.SyncNone
	default:
		return wal.SyncAlways
	}
}

// FsyncPolicyByName resolves "always", "interval" or "none" — the
// values the discserve -fsync flag accepts.
func FsyncPolicyByName(name string) (FsyncPolicy, error) {
	switch name {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "none":
		return FsyncNone, nil
	default:
		return 0, fmt.Errorf("disc: unknown fsync policy %q (supported: always, interval, none)", name)
	}
}

// WithFsync sets the write-ahead-log fsync policy of OpenUpdater
// (default FsyncAlways). Ignored by constructors that take no log.
func WithFsync(p FsyncPolicy) Option {
	return func(o *options) error {
		switch p {
		case FsyncAlways, FsyncInterval, FsyncNone:
		default:
			return fmt.Errorf("disc: unknown fsync policy %v", int(p))
		}
		o.walSync = p
		return nil
	}
}

// WithFsyncInterval sets the batching window of FsyncInterval (default
// 100ms).
func WithFsyncInterval(d time.Duration) Option {
	return func(o *options) error {
		if d <= 0 {
			return fmt.Errorf("disc: non-positive fsync interval %v", d)
		}
		o.walInterval = d
		return nil
	}
}

// WithWALSegmentBytes sets the write-ahead-log segment rotation
// threshold (default 64 MiB). Mainly for tests.
func WithWALSegmentBytes(n int64) Option {
	return func(o *options) error {
		if n <= 0 {
			return fmt.Errorf("disc: non-positive WAL segment size %d", n)
		}
		o.walSegment = n
		return nil
	}
}

// WithStorageFS routes every file operation OpenUpdater and the
// returned Updater perform — the snapshot read, WAL segment I/O, and
// Checkpoint's atomic snapshot save — through fsys instead of the real
// filesystem. The dataset manager uses it to run recovery and
// checkpointing under scheduled fault injection; production callers
// never need it. Ignored by constructors that take no files.
func WithStorageFS(fsys vfs.FS) Option {
	return func(o *options) error {
		if fsys == nil {
			return fmt.Errorf("disc: nil storage filesystem")
		}
		o.storageFS = fsys
		return nil
	}
}

// OpenUpdater opens (or creates) a crash-safe Updater backed by a
// snapshot file and a write-ahead log: the state at snapshotPath is
// loaded (when present), the log segments at walPath are replayed onto
// the substrate (dataset, grid, recorded edges; no per-record
// adjacency splice or repair), then the adjacency is folded once and one
// greedy runs over the final state, and every subsequent Insert/Delete is appended to the log
// before it is acknowledged, under the configured FsyncPolicy.
// Checkpoint writes a fresh snapshot crash-atomically and truncates the
// log; a process killed at any instant reopens with OpenUpdater to
// exactly the acknowledged state (see docs/DURABILITY.md for the
// precise guarantees per fsync policy).
//
// When neither file exists the updater starts empty and the first
// segment of the log is created. A snapshot written by a previous
// Checkpoint records the log epoch it begins, which is how recovery
// pairs the two files; a log whose epoch is ahead of the snapshot
// (or present with no snapshot at all after a checkpoint) is refused
// rather than silently dropping acknowledged updates.
//
// Ids are dense and never reused within a process lifetime, but a
// restart that follows a Checkpoint re-identifies the live points in
// ascending id order (the compaction remap); clients must re-list
// after reconnecting, exactly as they must after a snapshot load.
//
// Respected options: everything NewUpdater takes, plus WithFsync,
// WithFsyncInterval and WithWALSegmentBytes. The snapshot must be a
// float64 coverage-graph snapshot (what Updater.Checkpoint and
// Updater.WriteSnapshot write), whose graph rows are ascending by id.
// A Diversifier's snapshot stores its rows by (distance, id) and does
// not open as an Updater; only one written before that row order (or
// one without a graph) does.
//
// The durable path feeds the process-wide telemetry registry: appends,
// fsyncs, rotations and recovery replays are counted and timed
// (disc_wal_appends_total, disc_wal_fsyncs_total,
// disc_wal_replay_seconds, disc_snapshot_read_seconds, …) and exposed
// by discserve at GET /metrics; see docs/OBSERVABILITY.md.
func OpenUpdater(snapshotPath, walPath string, r float64, opts ...Option) (*Updater, error) {
	o := defaultOptions()
	// Clear the metric default so a caller-supplied metric is
	// distinguishable from "use the snapshot's" (same rule as
	// LoadDiversifier).
	o.metric = nil
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return nil, err
		}
	}
	if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		return nil, fmt.Errorf("disc: invalid radius %g", r)
	}
	if o.indexSet && o.index != IndexCoverageGraph {
		return nil, fmt.Errorf("disc: updater: index %v is not applicable; incremental repair runs on the coverage-graph substrate", o.index)
	}

	fsys := o.storageFS
	if fsys == nil {
		fsys = vfs.OS
	}

	// Load the snapshot, when present. The bytes are read through the
	// storage FS in full, then decoded in place, so an I/O failure
	// (*os.PathError) is distinguishable from corruption (snap.ErrCorrupt).
	var s *snap.Snapshot
	if data, err := fsys.ReadFile(snapshotPath); err == nil {
		s, err = snap.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("disc: open: %s: %w", snapshotPath, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("disc: open: %w", err)
	}

	// Resolve the metric exactly like LoadDiversifier: the snapshot's
	// recorded metric wins, a caller-supplied one may only restate it.
	metric := o.metric
	if s != nil {
		if metric != nil {
			if metric.Name() != s.Metric {
				return nil, fmt.Errorf("disc: open: snapshot was written for metric %q, not %q", s.Metric, metric.Name())
			}
		} else {
			m, err := MetricByName(s.Metric)
			if err != nil {
				return nil, fmt.Errorf("disc: open: snapshot metric %q is not built in; supply it with WithMetric", s.Metric)
			}
			metric = m
		}
	} else if metric == nil {
		metric = Euclidean()
	}

	epoch := uint64(0)
	u := &Updater{metric: metric, parallelism: o.parallelism, capacity: o.capacity, seed: o.seed}
	var rp *core.LiveReplay
	if s != nil {
		if s.Coords == nil {
			return nil, fmt.Errorf("disc: open: %s is a float32 snapshot; the live-update substrate is float64", snapshotPath)
		}
		if s.Graph != nil && s.GraphRadius != r {
			return nil, fmt.Errorf("disc: open: snapshot was checkpointed at radius %g, not %g", s.GraphRadius, r)
		}
		epoch = s.WALEpoch
		u.parallelism, u.capacity, u.seed = s.Parallelism, s.Capacity, s.Seed
		flat, err := object.NewFlatDataset(s.Coords, s.N, s.Dim, metric)
		if err != nil {
			return nil, fmt.Errorf("disc: open: %w", err)
		}
		if s.Graph != nil {
			// Warm path: adopt the persisted CSR, skipping the grid
			// build and ε-join.
			rp, err = core.RestoreLiveReplay(flat, s.Graph, r)
		} else {
			workers := o.parallelism
			if workers <= 0 {
				workers = runtime.GOMAXPROCS(0)
			}
			rp, err = core.SeedLiveReplay(flat, r, workers)
		}
		if err != nil {
			return nil, fmt.Errorf("disc: open: %w", err)
		}
	} else {
		// No snapshot. A log that has been through a checkpoint (epoch
		// > 0) depends on one: its pre-checkpoint records are gone.
		if info, err := wal.DescribeFS(fsys, walPath); err == nil && info.Epoch > 0 {
			return nil, fmt.Errorf("disc: open: log %s is at checkpoint epoch %d but snapshot %s is missing; acknowledged state would be lost", walPath, info.Epoch, snapshotPath)
		}
		var err error
		if rp, err = core.NewLiveReplay(metric, r); err != nil {
			return nil, err
		}
	}

	log, ops, err := wal.Open(walPath, wal.Options{
		Epoch:        epoch,
		Radius:       r,
		Metric:       metric.Name(),
		Sync:         o.walSync.walMode(),
		Interval:     o.walInterval,
		SegmentBytes: o.walSegment,
		FS:           o.storageFS,
	})
	if err != nil {
		return nil, err
	}

	// Replay onto the substrate only. The snapshot's points occupy dense
	// ids 0..n-1 and log ids continue from there, so replayed inserts
	// must land exactly on their recorded ids — any drift means the log
	// does not belong to this snapshot.
	for i, op := range ops {
		switch op.Kind {
		case wal.OpInsert:
			id, err := rp.Insert(object.Point(op.Point))
			if err != nil {
				log.Close()
				return nil, fmt.Errorf("disc: open: replaying log record %d: %w", i, err)
			}
			if int64(id) != op.ID {
				log.Close()
				return nil, fmt.Errorf("disc: open: log record %d inserts id %d but replay assigned %d; the log does not extend this snapshot", i, op.ID, id)
			}
		case wal.OpDelete:
			if err := rp.Delete(int(op.ID)); err != nil {
				log.Close()
				return nil, fmt.Errorf("disc: open: replaying log record %d: %w", i, err)
			}
		}
	}
	// Then one adjacency fold and greedy run over the final state.
	u.live = rp.Finish()

	// The in-memory id space now coincides with the log id space:
	// identity mapping, next log id = next slot.
	slots := u.live.Slots()
	u.epochID = make([]int64, slots)
	for i := range u.epochID {
		u.epochID[i] = int64(i)
	}
	u.logNext = int64(slots)
	u.log = log
	u.fs = fsys
	return u, nil
}
