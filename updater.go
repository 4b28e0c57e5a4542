package disc

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"

	"github.com/discdiversity/disc/internal/core"
	"github.com/discdiversity/disc/internal/object"
	"github.com/discdiversity/disc/internal/snap"
	"github.com/discdiversity/disc/internal/vfs"
	"github.com/discdiversity/disc/internal/wal"
)

// Updater maintains an r-DisC diverse selection under live inserts and
// deletes, repairing only the part of the greedy run a mutation changes
// instead of re-running the batch selection: every object keeps the
// time it left the white set in the last run, and a Flush replays the
// run from the objects the mutations touched until it agrees with
// that record again. It is built on the same
// substrate as IndexCoverageGraph — spliced CSR adjacency and a mutable
// grid for Euclidean, Manhattan and Chebyshev — and is
// property-tested to stay exactly equivalent to a
// rebuild under every built-in metric: after Flush, the selection is
// the one a coverage-graph Select(r) would compute over the current
// live points from scratch.
//
// # Staleness contract
//
// Reads are bounded-stale: Selection, IsRepresentative and Size answer
// from the last converged selection, published atomically by Flush (and
// by the constructor). Mutations queue the objects they touched but
// never change what readers see, so a read during a burst of updates is
// a consistent DisC-diverse selection of some recent state — never a
// half-repaired one. Flush is the convergence barrier: it replays the
// pruned greedy from the objects the mutations touched and publishes
// the result; Pending reports the number of writes since the last
// Flush, nonzero exactly while reads may be stale.
//
// Mutations and Flush serialise on an internal lock; reads are
// lock-free. An Updater is therefore safe for any number of concurrent
// readers alongside one or more writers.
//
// Ids are assigned densely at insert and never reused; deleted ids stay
// tombstoned internally until a snapshot compaction.
//
// Inserts, deletes and Flush repairs feed the process-wide telemetry
// registry (disc_live_insert_seconds, disc_live_delete_seconds,
// disc_live_repair_seconds, disc_live_resimulated_objects_total —
// exposed by discserve at GET /metrics; see docs/OBSERVABILITY.md).
// The instrumentation is atomic adds only, so the lock-free reads stay
// 0 alloc/op with telemetry enabled (pinned by test).
type Updater struct {
	mu          sync.Mutex
	live        *core.LiveDisC
	metric      Metric
	parallelism int
	capacity    int
	seed        uint64

	// Durability state, nil/zero for updaters without a write-ahead log
	// (see OpenUpdater). epochID maps in-memory ids to log-space ids:
	// identity at open, rebuilt from the compaction remap at every
	// Checkpoint. logNext is the next log id to assign. A failed append
	// or rotation poisons the log (the file may hold a torn frame), so
	// all further mutations fail rather than silently diverging from
	// the recovered state.
	log     *wal.Log
	epochID []int64
	logNext int64
	closed  bool
	// fs is the storage filesystem for checkpoint snapshot writes (set
	// by OpenUpdater; nil means the real filesystem).
	fs vfs.FS
}

// NewUpdater builds an Updater for radius r, seeded with points (which
// may be empty — the dimensionality is then fixed by the first Insert).
// A non-empty seed runs the batch pipeline once (grid build, ε-join,
// one full greedy run), so the first published selection is exactly the
// batch selection.
//
// Respected options: WithMetric (any metric), WithParallelism
// (ε-join sharding for the seed build), WithSeed and WithMTreeCapacity
// (recorded for snapshot round trips). The index is not configurable —
// an Updater is the coverage-graph substrate — so WithIndex of anything
// but IndexCoverageGraph is an error.
func NewUpdater(points []Point, r float64, opts ...Option) (*Updater, error) {
	o := defaultOptions()
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
	u := &Updater{metric: o.metric, parallelism: o.parallelism, capacity: o.capacity, seed: o.seed}
	if len(points) == 0 {
		live, err := core.NewLiveDisC(o.metric, r)
		if err != nil {
			return nil, err
		}
		u.live = live
		return u, nil
	}
	if _, err := object.ValidatePoints(points); err != nil {
		return nil, fmt.Errorf("disc: %w", err)
	}
	flat, err := object.Flatten(points, o.metric)
	if err != nil {
		return nil, fmt.Errorf("disc: %w", err)
	}
	workers := o.parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	live, err := core.SeedLiveDisC(flat, r, workers)
	if err != nil {
		return nil, fmt.Errorf("disc: %w", err)
	}
	u.live = live
	return u, nil
}

// Insert adds p and returns its assigned id. p and its in-range
// neighbours are queued for repair; the published selection is
// unchanged until Flush. A durable
// updater (OpenUpdater) appends the op to its write-ahead log — under
// the configured fsync policy — before returning; an error means the
// op is not acknowledged and may not survive a restart.
func (u *Updater) Insert(p Point) (int, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return 0, fmt.Errorf("disc: updater is closed")
	}
	id, err := u.live.Insert(p)
	if err != nil || u.log == nil {
		return id, err
	}
	logID := u.logNext
	u.logNext++
	for len(u.epochID) < u.live.Slots() {
		u.epochID = append(u.epochID, -1)
	}
	u.epochID[id] = logID
	if err := u.log.Append(wal.Op{Kind: wal.OpInsert, ID: logID, Point: p}); err != nil {
		return 0, err
	}
	return id, nil
}

// Delete retracts a live object. Its former neighbours are queued for
// repair; the published selection is unchanged until Flush. A durable updater
// logs the op before returning, like Insert.
func (u *Updater) Delete(id int) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.closed {
		return fmt.Errorf("disc: updater is closed")
	}
	if err := u.live.Delete(id); err != nil {
		return err
	}
	if u.log == nil {
		return nil
	}
	return u.log.Append(wal.Op{Kind: wal.OpDelete, ID: u.epochID[id]})
}

// Flush replays the greedy from the objects the writes since the last
// Flush touched — not re-running it over every object — and
// publishes the converged selection, returning the number of writes it
// converged (Pending before the call). After Flush, reads see a
// selection identical to a from-scratch coverage-graph Select over the
// live points.
func (u *Updater) Flush() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.live.Flush()
}

// Pending returns the number of writes (inserts and deletes) since the
// last Flush.
func (u *Updater) Pending() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.live.Pending()
}

// Selection returns the ids of the last published selection in
// ascending order. Lock-free and safe for concurrent use; the slice is
// shared and must not be modified.
func (u *Updater) Selection() []int { return u.live.Selection() }

// Size returns the size of the last published selection. Lock-free.
func (u *Updater) Size() int { return u.live.Size() }

// IsRepresentative reports whether id is selected in the last published
// selection. Lock-free.
func (u *Updater) IsRepresentative(id int) bool { return u.live.IsRepresentative(id) }

// Radius returns the maintained diversification radius.
func (u *Updater) Radius() float64 { return u.live.Radius() }

// Len returns the number of live objects.
func (u *Updater) Len() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.live.Len()
}

// Dim returns the dimensionality of the maintained points (0 until the
// first point fixes it).
func (u *Updater) Dim() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.live.Dim()
}

// Alive reports whether id names a live (not deleted) object.
func (u *Updater) Alive(id int) bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.live.Alive(id)
}

// Point returns a copy of the coordinates of object id (tombstoned ids
// included).
func (u *Updater) Point(id int) Point {
	u.mu.Lock()
	defer u.mu.Unlock()
	return Point(u.live.Point(id))
}

// Accesses returns the cumulative objects-examined count across
// neighbourhood queries and repairs.
func (u *Updater) Accesses() int64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.live.Accesses()
}

// Verify checks the DisC invariants of the converged selection by
// direct distance computation (O(n·|S|); tests and debugging). It
// errors when repairs are pending — Flush first.
func (u *Updater) Verify() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.live.Verify()
}

// WriteSnapshot persists the updater's compacted state to the .discsnap
// format (see docs/SNAPSHOT_FORMAT.md): tombstones are squeezed out, so
// the snapshot carries the live points densely re-identified in
// ascending id order, together with the coverage CSR and, for Lp
// metrics, the updater's radius as the grid's bucketing radius, so
// LoadDiversifier warm-starts from it without a join.
//
// Snapshotting unflushed writes would persist a selection they have
// already invalidated, so WriteSnapshot refuses while Pending > 0; call
// Flush first. An empty updater has nothing to persist and is refused
// too.
func (u *Updater) WriteSnapshot(w io.Writer) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if p := u.live.Pending(); p > 0 {
		return fmt.Errorf("disc: snapshot: %d writes pending repair; call Flush first", p)
	}
	s, _, err := u.buildSnapshot()
	if err != nil {
		return err
	}
	if err := snap.Write(w, s); err != nil {
		return fmt.Errorf("disc: snapshot: %w", err)
	}
	return nil
}

// buildSnapshot compacts the live state into a snap.Snapshot (WALEpoch
// unset) plus the compaction remap. Caller holds u.mu and has checked
// Pending.
func (u *Updater) buildSnapshot() (*snap.Snapshot, []int32, error) {
	if u.live.Len() == 0 {
		return nil, nil, fmt.Errorf("disc: snapshot: updater holds no live objects")
	}
	flat, remap, csr, err := u.live.Compact()
	if err != nil {
		return nil, nil, fmt.Errorf("disc: snapshot: %w", err)
	}
	var gridR *float64
	if u.live.Gridded() {
		r := u.live.Radius()
		gridR = &r
	}
	return &snap.Snapshot{
		Index:       IndexCoverageGraph.String(),
		Parallelism: u.parallelism,
		Capacity:    u.capacity,
		Seed:        u.seed,
		Metric:      u.metric.Name(),
		N:           flat.Len(),
		Dim:         flat.Dim(),
		Coords:      flat.Coords(),
		GridRadius:  gridR,
		GraphRadius: u.live.Radius(),
		Graph:       csr,
	}, remap, nil
}

// SaveSnapshot writes the compacted state to path crash-atomically
// (temp file + fsync + rename + parent-directory fsync). For a durable
// updater this is a full Checkpoint — the write-ahead log is rotated
// and truncated in the same operation; for a plain updater it is an
// atomic WriteSnapshot. Pending repairs are flushed first (the
// snapshot must carry a converged selection).
func (u *Updater) SaveSnapshot(path string) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.checkpointLocked(path)
}

// Checkpoint is SaveSnapshot under its durability-lifecycle name: it
// flushes pending repairs, writes the compacted state to path
// crash-atomically, and — when the updater carries a write-ahead log —
// advances the log to a fresh epoch and deletes the now-covered
// segments. A crash at any instant leaves either the old
// (snapshot, log) pair or the new one recoverable: the snapshot names
// the epoch it begins, and OpenUpdater replays only segments stamped
// with it.
func (u *Updater) Checkpoint(path string) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.checkpointLocked(path)
}

func (u *Updater) checkpointLocked(path string) error {
	u.live.Flush()
	s, remap, err := u.buildSnapshot()
	if err != nil {
		return err
	}
	if u.log == nil {
		return snap.WriteFileAtomicFS(u.fs, path, func(w io.Writer) error {
			if err := snap.Write(w, s); err != nil {
				return fmt.Errorf("disc: snapshot: %w", err)
			}
			return nil
		})
	}
	newEpoch := u.log.Epoch() + 1
	s.WALEpoch = newEpoch
	// Snapshot first, then rotate: if the process dies between the two,
	// recovery sees a snapshot at the new epoch next to segments of the
	// old one — which it discards as fully covered, exactly right,
	// because the snapshot already contains every op they hold.
	if err := snap.WriteFileAtomicFS(u.fs, path, func(w io.Writer) error {
		if err := snap.Write(w, s); err != nil {
			return fmt.Errorf("disc: snapshot: %w", err)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := u.log.Rotate(newEpoch); err != nil {
		return err
	}
	// The log id space restarts at the compacted dense ids; in-memory
	// ids are untouched (clients keep their handles), only the mapping
	// changes.
	live := int64(0)
	for old, nw := range remap {
		if nw >= 0 {
			u.epochID[old] = int64(nw)
			live++
		} else if u.live.Alive(old) {
			// Cannot happen: remap drops exactly the tombstones.
			return fmt.Errorf("disc: checkpoint: live id %d missing from compaction remap", old)
		}
	}
	u.logNext = live
	return nil
}

// Durable reports whether the updater is backed by a write-ahead log
// (constructed by OpenUpdater).
func (u *Updater) Durable() bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.log != nil
}

// WALBroken returns the error that poisoned the write-ahead log (a
// failed append, fsync or rotation), or nil while the log is healthy
// or absent. A poisoned updater refuses further mutations; its
// in-memory state may hold operations that were never acknowledged, so
// a supervisor must recover from disk — the acknowledged prefix — not
// from this instance.
func (u *Updater) WALBroken() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.log == nil {
		return nil
	}
	return u.log.Broken()
}

// SyncWAL forces an fsync of the write-ahead log regardless of the
// configured policy; a no-op without one.
func (u *Updater) SyncWAL() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.log == nil {
		return nil
	}
	return u.log.Sync()
}

// Close syncs and closes the write-ahead log, if any. The updater's
// in-memory state stays readable, but further mutations on a durable
// updater will fail. Safe to call on a plain updater and idempotent.
func (u *Updater) Close() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.log == nil {
		return nil
	}
	err := u.log.Close()
	u.log = nil
	u.closed = true
	return err
}
