package disc

// Checkpoint-under-ENOSPC: a checkpoint whose snapshot write fails must
// leave the previous snapshot + write-ahead log pair authoritative and
// the updater fully serviceable — the atomic-save protocol guarantees
// the target path is untouched on any failure, and the log is only
// rotated after the snapshot has committed. A later retry (space came
// back) must succeed.

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"github.com/discdiversity/disc/internal/faultio"
)

func TestCheckpointENOSPCLeavesStateAuthoritative(t *testing.T) {
	snapPath, walPath := home(t, t.TempDir(), "ds")
	fs := faultio.NewDirFS()

	u, err := OpenUpdater(snapPath, walPath, 0.2, WithFsync(FsyncAlways), WithStorageFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	for i := 0; i < 20; i++ {
		if _, err := u.Insert(Point{float64(i) * 0.25, float64(i%4) * 0.25}); err != nil {
			t.Fatal(err)
		}
	}
	u.Flush()
	before := append([]int(nil), u.Selection()...)
	segsBefore, err := filepath.Glob(walPath + ".*")
	if err != nil || len(segsBefore) == 0 {
		t.Fatalf("no WAL segments before checkpoint: %v (%v)", segsBefore, err)
	}

	// Disk full: every write to the checkpoint's temp file fails.
	fs.AddRule(&faultio.Rule{Op: faultio.OpWrite, PathContains: ".discsnap.tmp", Err: syscall.ENOSPC})
	err = u.Checkpoint(snapPath)
	if err == nil {
		t.Fatal("checkpoint under ENOSPC succeeded")
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("checkpoint error = %v, want ENOSPC", err)
	}

	// The old state is untouched: no snapshot appeared, the log was not
	// rotated, and no temp debris survived the aborted save.
	if _, err := os.Stat(snapPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed checkpoint left a snapshot: %v", err)
	}
	segsAfter, _ := filepath.Glob(walPath + ".*")
	if len(segsAfter) != len(segsBefore) {
		t.Fatalf("failed checkpoint changed the segment set: %v -> %v", segsBefore, segsAfter)
	}
	if debris, _ := filepath.Glob(filepath.Join(filepath.Dir(snapPath), "*.tmp-*")); len(debris) != 0 {
		t.Fatalf("aborted save left temp debris: %v", debris)
	}

	// The updater is not poisoned: reads serve, the log accepts and
	// acknowledges new mutations.
	if got := u.Selection(); len(got) != len(before) {
		t.Fatalf("selection after failed checkpoint has %d ids, want %d", len(got), len(before))
	}
	for i, id := range u.Selection() {
		if id != before[i] {
			t.Fatalf("selection changed after failed checkpoint: %v -> %v", before, u.Selection())
		}
	}
	if err := u.WALBroken(); err != nil {
		t.Fatalf("WAL poisoned by a snapshot-write failure: %v", err)
	}
	if _, err := u.Insert(Point{9, 9}); err != nil {
		t.Fatalf("insert after failed checkpoint: %v", err)
	}
	u.Flush()

	// Space comes back: the retry must compact and rotate normally.
	fs.ClearRules()
	if err := u.Checkpoint(snapPath); err != nil {
		t.Fatalf("checkpoint retry: %v", err)
	}
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("retried checkpoint wrote no snapshot: %v", err)
	}

	// The compacted pair round-trips: a fresh open replays to the same
	// live count (21 = 20 seeds + the post-failure insert).
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}
	u2, err := OpenUpdater(snapPath, walPath, 0.2, WithFsync(FsyncAlways), WithStorageFS(fs))
	if err != nil {
		t.Fatalf("reopen after retried checkpoint: %v", err)
	}
	defer u2.Close()
	if u2.Len() != 21 {
		t.Fatalf("reopened Len = %d, want 21", u2.Len())
	}
}
