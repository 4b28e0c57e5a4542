package disc

// The durability property suite (`make crash-props`): for randomized
// insert/delete sequences and a crash at EVERY byte boundary of the
// write-ahead log, recovery must yield a selection bit-identical to a
// from-scratch coverage-graph Select over the surviving op prefix —
// plus the checkpoint-protocol crash states and the fault-injected
// (short write / failed sync / mid-rotation) paths.
//
// Every durable file lives in a dataset home (<dir>/d/current.discsnap,
// <dir>/d/wal.*), the one layout internal/manager gives a dataset.
// Faults are injected through the storage seam (WithStorageFS):
// faultio.CrashFS for crashes, faultio.DirFS rules for failed syncs
// and short writes.

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/discdiversity/disc/internal/faultio"
	"github.com/discdiversity/disc/internal/vfs"
)

// home makes the dataset home <dir>/<name> and returns its checkpoint
// and write-ahead-log paths.
func home(t *testing.T, dir, name string) (snapPath, walPath string) {
	t.Helper()
	h := filepath.Join(dir, name)
	if err := os.MkdirAll(h, 0o755); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(h, "current.discsnap"), filepath.Join(h, "wal")
}

// walOp is one logical operation of a golden run, in log-id space.
type walOp struct {
	del bool
	id  int64
	pt  []float64
}

// genOps derives a deterministic mixed workload: ~70% inserts
// clustered enough (radius 0.15 over [0,1]²) that components merge and
// split, ~30% deletes of random live ids.
func genOps(rng *rand.Rand, n int) []walOp {
	var ops []walOp
	var live []int64
	next := int64(0)
	for len(ops) < n {
		if len(live) > 0 && rng.Float64() < 0.3 {
			k := rng.IntN(len(live))
			ops = append(ops, walOp{del: true, id: live[k]})
			live = append(live[:k], live[k+1:]...)
			continue
		}
		ops = append(ops, walOp{id: next, pt: []float64{rng.Float64(), rng.Float64()}})
		live = append(live, next)
		next++
	}
	return ops
}

// applyOps simulates a prefix of ops in log-id space, returning the
// live (id, point) pairs in ascending id order.
func applyOps(ops []walOp) (ids []int64, pts [][]float64) {
	live := map[int64][]float64{}
	for _, op := range ops {
		if op.del {
			delete(live, op.id)
		} else {
			live[op.id] = op.pt
		}
	}
	for id := range live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		pts = append(pts, live[id])
	}
	return ids, pts
}

// assertRecovered checks that u's live state is exactly (ids, pts) and
// that its published selection is bit-identical to a from-scratch
// coverage-graph Select over those points.
func assertRecovered(t *testing.T, u *Updater, ids []int64, pts [][]float64, r float64, ctx string) {
	t.Helper()
	if u.Len() != len(ids) {
		t.Fatalf("%s: recovered %d live points, want %d", ctx, u.Len(), len(ids))
	}
	// Recovered in-memory ids equal log ids: replay appends in log
	// order and OpenUpdater verifies each assigned id against the
	// recorded one, so surviving log id ids[k] must be alive and hold
	// pts[k].
	for k, pt := range pts {
		id := int(ids[k])
		if !u.Alive(id) {
			t.Fatalf("%s: recovered id %d is not alive", ctx, id)
		}
		got := u.Point(id)
		for j := range pt {
			if got[j] != pt[j] {
				t.Fatalf("%s: recovered point %d = %v, want %v", ctx, id, got, pt)
			}
		}
	}
	if len(ids) == 0 {
		if u.Size() != 0 {
			t.Fatalf("%s: empty state selects %d", ctx, u.Size())
		}
		return
	}
	points := make([]Point, len(pts))
	for i, p := range pts {
		points[i] = Point(p)
	}
	d, err := New(points, WithIndex(IndexCoverageGraph))
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	res, err := d.Select(r)
	if err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
	// The rebuild indexes the surviving points densely; translate its
	// selection back into log-id space before comparing.
	want := make([]int, 0, len(res.IDs()))
	for _, j := range res.IDs() {
		want = append(want, int(ids[j]))
	}
	sort.Ints(want)
	got := u.Selection()
	if len(got) != len(want) {
		t.Fatalf("%s: recovered selection %v, rebuild %v", ctx, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: recovered selection %v, rebuild %v", ctx, got, want)
		}
	}
	if err := u.Verify(); err != nil {
		t.Fatalf("%s: %v", ctx, err)
	}
}

// goldenRun executes ops against a fresh durable updater homed at
// <dir>/d and returns the cumulative WAL byte boundary after each op
// (boundary[i] = total log bytes once ops[:i+1] are acknowledged),
// plus the final total and the segment file names in sequence order.
func goldenRun(t *testing.T, dir string, ops []walOp, r float64, opts ...Option) (boundaries []int64, segs []string) {
	t.Helper()
	fsys := faultio.NewCrashFS(vfs.OS, 1<<40)
	snapPath, walPath := home(t, dir, "d")
	u, err := OpenUpdater(snapPath, walPath, r, append([]Option{WithStorageFS(fsys)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if op.del {
			err = u.Delete(int(op.id))
		} else {
			_, err = u.Insert(Point(op.pt))
		}
		if err != nil {
			t.Fatalf("golden op: %v", err)
		}
		boundaries = append(boundaries, fsys.Attempted())
	}
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Dir(walPath))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal.") {
			segs = append(segs, e.Name())
		}
	}
	sort.Strings(segs)
	return boundaries, segs
}

// crashImage materialises, in the home <dir>/d, the disk state of a
// crash at byte `limit` of the golden run's concatenated segment
// stream: each segment receives its slice of the first `limit` bytes,
// in order; segments entirely past the limit do not exist. It returns
// the home's checkpoint and log paths.
func crashImage(t *testing.T, goldenDir, dir string, segs []string, limit int64) (snapPath, walPath string) {
	t.Helper()
	snapPath, walPath = home(t, dir, "d")
	off := int64(0)
	for _, name := range segs {
		data, err := os.ReadFile(filepath.Join(goldenDir, "d", name))
		if err != nil {
			t.Fatal(err)
		}
		take := limit - off
		if take <= 0 {
			break
		}
		if take > int64(len(data)) {
			take = int64(len(data))
		}
		if err := os.WriteFile(filepath.Join(dir, "d", name), data[:take], 0o644); err != nil {
			t.Fatal(err)
		}
		off += int64(len(data))
	}
	return snapPath, walPath
}

// TestCrashPrefixRecoveryEveryByte is the headline durability property:
// truncate the log at every byte boundary; recovery must succeed and
// produce exactly the surviving op prefix, with a selection
// bit-identical to the from-scratch coverage-graph Select over it.
// Small segments force the stream across several rotations, so cuts
// land in headers, mid-record, and between segments.
func TestCrashPrefixRecoveryEveryByte(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	const r = 0.15
	ops := genOps(rng, 26)
	goldenDir := t.TempDir()
	boundaries, segs := goldenRun(t, goldenDir, ops, r,
		WithFsync(FsyncNone), WithWALSegmentBytes(256))
	if len(segs) < 3 {
		t.Fatalf("workload stayed in %d segments; want several to exercise rotation", len(segs))
	}
	total := boundaries[len(boundaries)-1]

	step := int64(1)
	if testing.Short() {
		step = 13
	}
	cuts := 0
	for cut := int64(0); cut <= total; cut += step {
		cuts++
		snapPath, walPath := crashImage(t, goldenDir, t.TempDir(), segs, cut)
		surviving := 0
		for surviving < len(ops) && boundaries[surviving] <= cut {
			surviving++
		}
		u, err := OpenUpdater(snapPath, walPath, r)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		ids, pts := applyOps(ops[:surviving])
		assertRecovered(t, u, ids, pts, r, fmt.Sprintf("cut=%d (%d ops survive)", cut, surviving))
		if err := u.Close(); err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
	}
	t.Logf("swept %d cut points over %d log bytes", cuts, total)
}

// TestCrashRecoveryInjectedWriter drives the same property through
// faultio.CrashFS end to end: the byte budget swallows everything past
// the crash point while the writer keeps acknowledging, exactly like a
// kernel losing un-synced pages — including budget exhaustion during a
// segment rotation.
func TestCrashRecoveryInjectedWriter(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 5))
	const r = 0.15
	ops := genOps(rng, 22)
	goldenDir := t.TempDir()
	boundaries, _ := goldenRun(t, goldenDir, ops, r,
		WithFsync(FsyncNone), WithWALSegmentBytes(256))
	total := boundaries[len(boundaries)-1]

	step := int64(17)
	if testing.Short() {
		step = 61
	}
	for cut := int64(0); cut <= total; cut += step {
		snapPath, walPath := home(t, t.TempDir(), "d")
		u, err := OpenUpdater(snapPath, walPath, r, WithStorageFS(faultio.NewCrashFS(vfs.OS, cut)),
			WithFsync(FsyncNone), WithWALSegmentBytes(256))
		if err != nil {
			// The budget died before even the first segment header: no
			// state was ever acknowledged, nothing to check.
			if cut == 0 {
				continue
			}
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		acked := 0
		for _, op := range ops {
			if op.del {
				err = u.Delete(int(op.id))
			} else {
				_, err = u.Insert(Point(op.pt))
			}
			if err != nil {
				break // poisoned mid-rotation: nothing later is acknowledged
			}
			acked++
		}
		u.Close()

		// Survivors are the ops whose bytes fit the budget — never more
		// than were acknowledged.
		surviving := 0
		for surviving < len(ops) && boundaries[surviving] <= cut {
			surviving++
		}
		if surviving > acked {
			t.Fatalf("cut=%d: %d ops survive but only %d were acknowledged", cut, surviving, acked)
		}
		u2, err := OpenUpdater(snapPath, walPath, r)
		if err != nil {
			t.Fatalf("cut=%d: recover: %v", cut, err)
		}
		ids, pts := applyOps(ops[:surviving])
		assertRecovered(t, u2, ids, pts, r, fmt.Sprintf("injected cut=%d", cut))
		if err := u2.Close(); err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
	}
}

// TestCheckpointCrashStates walks the crash windows of the checkpoint
// protocol itself: (A) snapshot renamed but log not yet rotated, (B)
// every byte prefix of the post-checkpoint log over the new snapshot,
// (C) the impossible-unless-tampered states — post-rotation log with a
// pre-rotation snapshot, and a checkpointed log with no snapshot at
// all — which must be refused, not guessed at.
func TestCheckpointCrashStates(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 1))
	const r = 0.15
	pre := genOps(rng, 14)
	snapPath, walPath := home(t, t.TempDir(), "d")

	u, err := OpenUpdater(snapPath, walPath, r, WithFsync(FsyncNone))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range pre {
		if op.del {
			err = u.Delete(int(op.id))
		} else {
			_, err = u.Insert(Point(op.pt))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// Keep the pre-checkpoint artifacts for state A.
	preSeg := walPath + ".00000000-00000001"
	preSegData, err := os.ReadFile(preSeg)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Checkpoint(snapPath); err != nil {
		t.Fatal(err)
	}
	preIDs, prePts := applyOps(pre)

	// Drive post-checkpoint ops against the live updater, recording
	// each one in LOG-id space via the internal epochID mapping (the
	// in-memory ids the updater hands out stay sparse across a
	// checkpoint; the log speaks the compacted dense ids).
	var post []walOp
	var postBoundaries []int64
	postSeg := walPath + ".00000001-00000001"
	for i := 0; i < 8; i++ {
		if i%3 == 2 {
			memID := -1
			for id := range u.epochID {
				if u.Alive(id) {
					memID = id
					if (id+i)%2 == 0 {
						break
					}
				}
			}
			if memID < 0 {
				t.Fatal("no live point left to delete")
			}
			logID := u.epochID[memID]
			if err := u.Delete(memID); err != nil {
				t.Fatal(err)
			}
			post = append(post, walOp{del: true, id: logID})
		} else {
			pt := []float64{rng.Float64(), rng.Float64()}
			memID, err := u.Insert(Point(pt))
			if err != nil {
				t.Fatal(err)
			}
			post = append(post, walOp{id: u.epochID[memID], pt: pt})
		}
		st, err := os.Stat(postSeg)
		if err != nil {
			t.Fatal(err)
		}
		postBoundaries = append(postBoundaries, st.Size())
	}
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}
	snapData, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	postSegData, err := os.ReadFile(postSeg)
	if err != nil {
		t.Fatal(err)
	}

	// The surviving-prefix state after the checkpoint: log ids are the
	// dense re-identification of the pre-checkpoint survivors.
	renumbered := make([]walOp, 0, len(preIDs)+len(post))
	for k, pt := range prePts {
		renumbered = append(renumbered, walOp{id: int64(k), pt: pt})
	}

	// State A: crash between snapshot rename and log rotation — the new
	// snapshot sits next to the old epoch's segment. Recovery must load
	// the snapshot, discard the stale segment, and match the checkpoint
	// state exactly.
	snapA, walA := home(t, t.TempDir(), "d")
	if err := os.WriteFile(snapA, snapData, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walA+".00000000-00000001", preSegData, 0o644); err != nil {
		t.Fatal(err)
	}
	uA, err := OpenUpdater(snapA, walA, r)
	if err != nil {
		t.Fatalf("state A: %v", err)
	}
	idsA, ptsA := applyOps(renumbered)
	assertRecovered(t, uA, idsA, ptsA, r, "state A (pre-rotation crash)")
	uA.Close()
	if _, err := os.Stat(walA + ".00000000-00000001"); !os.IsNotExist(err) {
		t.Fatalf("state A: stale epoch-0 segment survived recovery: %v", err)
	}

	// State B: crash at every byte of the post-checkpoint segment.
	for cut := int64(0); cut <= int64(len(postSegData)); cut++ {
		snapB, walB := home(t, t.TempDir(), "d")
		if err := os.WriteFile(snapB, snapData, 0o644); err != nil {
			t.Fatal(err)
		}
		if cut > 0 {
			if err := os.WriteFile(walB+".00000001-00000001", postSegData[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		surviving := 0
		for surviving < len(post) && postBoundaries[surviving] <= cut {
			surviving++
		}
		uB, err := OpenUpdater(snapB, walB, r)
		if err != nil {
			t.Fatalf("state B cut=%d: %v", cut, err)
		}
		ids, pts := applyOps(append(append([]walOp(nil), renumbered...), post[:surviving]...))
		assertRecovered(t, uB, ids, pts, r, fmt.Sprintf("state B cut=%d", cut))
		uB.Close()
	}

	// State C1: the log rotated but the snapshot is the PRE-checkpoint
	// one (epoch 0, here: absent entirely) — acknowledged state would be
	// lost, so recovery must refuse.
	snapC, walC := home(t, t.TempDir(), "d")
	if err := os.WriteFile(walC+".00000001-00000001", postSegData, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenUpdater(snapC, walC, r); err == nil {
		t.Fatal("state C1: recovery from a checkpointed log with no snapshot succeeded")
	}

	// State C2: segments from an epoch AHEAD of the snapshot.
	snapC2, walC2 := home(t, t.TempDir(), "d")
	if err := os.WriteFile(snapC2, snapData, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walC2+".00000002-00000001", postSegData, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenUpdater(snapC2, walC2, r); err == nil {
		t.Fatal("state C2: recovery with a future-epoch segment succeeded")
	}
}

// TestWALPoisoningOnSyncFailure: a failed fsync poisons the log — the
// mutation reports an error and every later mutation fails too, so an
// op whose durability is unknown never gains a successor. Recovery
// yields a prefix of the attempted ops that includes at least every
// acknowledged one; the un-acked frame itself MAY survive (its bytes
// reached the file, only the fsync failed), which is exactly the
// contract — acked ops always recover, un-acked ops recover or not.
func TestWALPoisoningOnSyncFailure(t *testing.T) {
	snapPath, walPath := home(t, t.TempDir(), "d")
	// Sync 1 is the segment-creation sync; 2 and 3 ack the first two
	// inserts; 4 fails.
	fsys := faultio.NewDirFS(&faultio.Rule{Op: faultio.OpSync, PathContains: "wal.", At: 4, Times: 1})
	u, err := OpenUpdater(snapPath, walPath, 0.15, WithStorageFS(fsys), WithFsync(FsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Insert(Point{0.1, 0.1}); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Insert(Point{0.9, 0.9}); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Insert(Point{0.5, 0.5}); err == nil {
		t.Fatal("insert with failing fsync was acknowledged")
	}
	if _, err := u.Insert(Point{0.7, 0.7}); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("mutation after a failed fsync = %v, want poisoned-log error", err)
	}
	if err := u.Delete(0); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("delete after a failed fsync = %v, want poisoned-log error", err)
	}
	u.Close()

	u2, err := OpenUpdater(snapPath, walPath, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	defer u2.Close()
	// Here no crash actually happened, so the un-acked third insert's
	// bytes are all present and recovery includes it.
	ids, pts := applyOps([]walOp{
		{id: 0, pt: []float64{0.1, 0.1}},
		{id: 1, pt: []float64{0.9, 0.9}},
		{id: 2, pt: []float64{0.5, 0.5}},
	})
	assertRecovered(t, u2, ids, pts, 0.15, "after poisoned run")
}

// TestWALShortWriteTornTail: a short write leaves a torn frame; the op
// is not acknowledged, and recovery truncates the tail back to the
// acknowledged prefix.
func TestWALShortWriteTornTail(t *testing.T) {
	snapPath, walPath := home(t, t.TempDir(), "d")
	// Write 1 is the header; write 3 (the second op) tears after 7
	// bytes.
	fsys := faultio.NewDirFS(&faultio.Rule{Op: faultio.OpWrite, PathContains: "wal.", At: 3, Times: 1,
		Partial: 7, Err: io.ErrShortWrite})
	u, err := OpenUpdater(snapPath, walPath, 0.15, WithStorageFS(fsys), WithFsync(FsyncNone))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Insert(Point{0.1, 0.1}); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Insert(Point{0.9, 0.9}); err == nil {
		t.Fatal("short-written insert was acknowledged")
	}
	u.Close()

	u2, err := OpenUpdater(snapPath, walPath, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	defer u2.Close()
	ids, pts := applyOps([]walOp{{id: 0, pt: []float64{0.1, 0.1}}})
	assertRecovered(t, u2, ids, pts, 0.15, "after short write")
}
