package manager

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	disc "github.com/discdiversity/disc"
	"github.com/discdiversity/disc/internal/faultio"
	"github.com/discdiversity/disc/internal/grid"
	"github.com/discdiversity/disc/internal/object"
	"github.com/discdiversity/disc/internal/snap"
	"github.com/discdiversity/disc/internal/telemetry"
	"github.com/discdiversity/disc/internal/vfs"
)

// fastCfg returns a Config tuned for tests: millisecond backoff so a
// park-after-retries transition happens in tens of milliseconds, not
// tens of seconds.
func fastCfg(dir string) Config {
	return Config{
		Dir:         dir,
		Fsync:       disc.FsyncAlways,
		BackoffBase: 2 * time.Millisecond,
		BackoffCap:  20 * time.Millisecond,
		MaxAttempts: 3,
	}
}

func seedPoints(n int) []disc.Point {
	pts := make([]disc.Point, n)
	for i := range pts {
		pts[i] = disc.Point{float64(i) * 3, float64(i%3) * 3}
	}
	return pts
}

// waitState polls until the dataset reaches the wanted state or the
// deadline passes.
func waitState(t *testing.T, d *Dataset, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st, _ := d.Status(); st == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, reason := d.Status()
	t.Fatalf("dataset %q never reached %s; stuck at %s (%s)", d.Name(), want, st, reason)
}

func TestManagerMemoryLifecycle(t *testing.T) {
	m := New(Config{})
	d, err := m.Create("mem", "euclidean", 2.0, seedPoints(6))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if st, _ := d.Status(); st != StateReady {
		t.Fatalf("state = %s, want ready", st)
	}
	u, err := d.Updater()
	if err != nil {
		t.Fatalf("Updater: %v", err)
	}
	if u.Len() != 6 {
		t.Fatalf("Len = %d, want 6", u.Len())
	}
	if _, err := m.Create("mem", "euclidean", 2.0, nil); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Create err = %v, want ErrExists", err)
	}
	if _, err := m.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get unknown err = %v, want ErrNotFound", err)
	}
	if err := m.Unquarantine("mem"); err == nil || !strings.Contains(err.Error(), "not quarantined") {
		t.Fatalf("Unquarantine on ready dataset err = %v, want 'not quarantined'", err)
	}
	states := m.States()
	if states["mem"].State != StateReady {
		t.Fatalf("States = %+v, want mem ready", states)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st, _ := d.Status(); st != StateClosed {
		t.Fatalf("state after Close = %s, want closed", st)
	}
}

func TestManagerRecoverMultipleDatasets(t *testing.T) {
	dir := t.TempDir()
	m := New(fastCfg(dir))
	counts := map[string]int{"alpha": 5, "beta": 7, "gamma": 3}
	for name, n := range counts {
		if _, err := m.Create(name, "euclidean", 2.0, seedPoints(n)); err != nil {
			t.Fatalf("Create %s: %v", name, err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	m2 := New(fastCfg(dir))
	defer m2.Close()
	serving, err := m2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if serving != 3 {
		t.Fatalf("Recover serving = %d, want 3", serving)
	}
	for name, n := range counts {
		d, err := m2.Get(name)
		if err != nil {
			t.Fatalf("Get %s: %v", name, err)
		}
		if st, reason := d.Status(); st != StateReady {
			t.Fatalf("%s state = %s (%s), want ready", name, st, reason)
		}
		if got := d.Info().Live; got != n {
			t.Fatalf("%s Live = %d, want %d", name, got, n)
		}
	}
	// Durable creates must refuse names with on-disk state.
	if _, err := m2.Create("alpha", "euclidean", 2.0, nil); !errors.Is(err, ErrExists) {
		t.Fatalf("Create over loaded dataset err = %v, want ErrExists", err)
	}
}

func TestManagerQuarantineAndUnquarantine(t *testing.T) {
	dir := t.TempDir()
	m := New(fastCfg(dir))
	d, err := m.Create("victim", "euclidean", 2.0, seedPoints(8))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, _, err := d.Save(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	snapPath := filepath.Join(dir, "victim", "current.discsnap")
	good, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	// Flip a byte in the snapshot's interior: checksummed payload, so
	// recovery must refuse it as corruption, not retry it.
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0xff
	if err := os.WriteFile(snapPath, bad, 0o644); err != nil {
		t.Fatalf("corrupt snapshot: %v", err)
	}

	m2 := New(fastCfg(dir))
	serving, err := m2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if serving != 0 {
		t.Fatalf("Recover serving = %d, want 0 (quarantined)", serving)
	}
	d2, err := m2.Get("victim")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	st, reason := d2.Status()
	if st != StateQuarantined || reason == "" {
		t.Fatalf("state = %s (%q), want quarantined with a reason", st, reason)
	}
	if _, err := d2.Updater(); err == nil {
		t.Fatal("Updater on quarantined dataset succeeded")
	} else {
		var ue *UnavailableError
		if !errors.As(err, &ue) || ue.State != StateQuarantined {
			t.Fatalf("Updater err = %v, want UnavailableError{quarantined}", err)
		}
	}
	sidecar := filepath.Join(dir, "victim", "QUARANTINE")
	if _, err := os.Stat(sidecar); err != nil {
		t.Fatalf("quarantine sidecar missing: %v", err)
	}
	if err := m2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A reboot must not clear the quarantine: the sidecar keeps the
	// dataset out even though we also repair the snapshot below.
	if err := os.WriteFile(snapPath, good, 0o644); err != nil {
		t.Fatalf("repair snapshot: %v", err)
	}
	m3 := New(fastCfg(dir))
	defer m3.Close()
	if serving, err := m3.Recover(); err != nil || serving != 0 {
		t.Fatalf("Recover after repair-without-unquarantine = (%d, %v), want (0, nil)", serving, err)
	}
	d3, _ := m3.Get("victim")
	if st, _ := d3.Status(); st != StateQuarantined {
		t.Fatalf("state after reboot = %s, want quarantined (sidecar must persist)", st)
	}

	// The operator runbook: repair the files, then lift the quarantine.
	if err := m3.Unquarantine("victim"); err != nil {
		t.Fatalf("Unquarantine: %v", err)
	}
	waitState(t, d3, StateReady)
	if got := d3.Info().Live; got != 8 {
		t.Fatalf("Live after unquarantine = %d, want 8", got)
	}
	if _, err := os.Stat(sidecar); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("sidecar still present after unquarantine: %v", err)
	}
}

func TestManagerDegradedServesLastSnapshot(t *testing.T) {
	dir := t.TempDir()
	m := New(fastCfg(dir))
	d, err := m.Create("deg", "euclidean", 2.0, seedPoints(9))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	u, _ := d.Updater()
	if _, _, err := d.Save(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// A few post-checkpoint mutations so the log carries state the
	// degraded view must NOT pretend to have.
	if _, err := u.Insert(disc.Point{100, 100}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Every WAL segment read fails with EIO — transient in kind, but
	// persistent: recovery retries, exhausts its attempts, and must park
	// in degraded mode serving the last good snapshot read-only.
	fs := faultio.NewDirFS(&faultio.Rule{Op: faultio.OpRead, PathContains: "deg/wal.", Err: syscall.EIO})
	cfg := fastCfg(dir)
	cfg.FS = fs
	m2 := New(cfg)
	defer m2.Close()
	serving, err := m2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if serving != 1 {
		t.Fatalf("Recover serving = %d, want 1 (degraded still serves)", serving)
	}
	d2, _ := m2.Get("deg")
	if st, _ := d2.Status(); st != StateDegraded {
		t.Fatalf("state = %s, want degraded", st)
	}
	v, err := d2.View()
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	if v.Deg == nil || v.Upd != nil {
		t.Fatalf("degraded view = %+v, want snapshot-backed", v)
	}
	if v.Deg.Live != 9 {
		t.Fatalf("degraded Live = %d, want 9 (snapshot state, not the logged insert)", v.Deg.Live)
	}
	if len(v.Deg.Selection) == 0 {
		t.Fatal("degraded selection is empty")
	}
	// Mutations must refuse with a 503-shaped error while degraded.
	if _, err := d2.Updater(); err == nil {
		t.Fatal("Updater on degraded dataset succeeded")
	}

	// Disk heals: the supervisor is still retrying at the cap, so the
	// dataset must climb back to ready with the logged insert replayed.
	fs.ClearRules()
	d2.kickNow()
	waitState(t, d2, StateReady)
	if got := d2.Info().Live; got != 10 {
		t.Fatalf("Live after recovery = %d, want 10", got)
	}
}

func TestManagerScanSkipsInvalidNames(t *testing.T) {
	dir := t.TempDir()
	m := New(fastCfg(dir))
	if _, err := m.Create("good", "euclidean", 2.0, seedPoints(4)); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A stray home whose dataset name contains a separator must be
	// skipped by the boot scan, never joined into a path.
	if err := os.Mkdir(filepath.Join(dir, `evil\name`), 0o755); err != nil {
		t.Fatalf("plant stray home: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, `evil\name`, "current.discsnap"), []byte("x"), 0o644); err != nil {
		t.Fatalf("plant stray file: %v", err)
	}
	m2 := New(fastCfg(dir))
	defer m2.Close()
	serving, err := m2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if serving != 1 {
		t.Fatalf("serving = %d, want 1", serving)
	}
	if _, err := m2.Get(`evil\name`); !errors.Is(err, ErrNotFound) {
		t.Fatalf("invalid name was loaded: %v", err)
	}
}

func TestValidateName(t *testing.T) {
	for _, name := range []string{"alpha", "a-b_c.1", "UPPER"} {
		if err := ValidateName(name); err != nil {
			t.Errorf("ValidateName(%q) = %v, want nil", name, err)
		}
	}
	for _, name := range []string{"", ".", "..", "a/b", `a\b`, "../etc", "a/../b", "/abs"} {
		if err := ValidateName(name); err == nil {
			t.Errorf("ValidateName(%q) = nil, want error", name)
		}
	}
}

// checkpointedDir leaves one durable dataset "d" on disk the way a
// crash finds it: 8 points checkpointed, one more insert in the log.
func checkpointedDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	m := New(fastCfg(dir))
	d, err := m.Create("d", "euclidean", 2.0, seedPoints(8))
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	u, _ := d.Updater()
	if _, _, err := d.Save(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if _, err := u.Insert(disc.Point{100, 100}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return dir
}

// dirContents maps every file name in dir (the quarantine sidecar
// aside) to its bytes.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		if e.Name() == "QUARANTINE" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestRecoverOutcomes pins where boot recovery leaves each on-disk
// state: whole states serve, an I/O fault is retried, and damaged or
// inconsistent bytes quarantine with every file left as found.
func TestRecoverOutcomes(t *testing.T) {
	// The one segment the checkpoint started, and the byte offset of
	// an id byte inside its first record (header, then frame header).
	// Damage and file comparisons work inside the home d/.
	const seg = "wal.00000001-00000001"
	firstRecordID := 36 + len("euclidean") + 4 + 8 + 2
	flip := func(name string, off func(n int) int) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			p := filepath.Join(dir, name)
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			data[off(len(data))] ^= 0x40
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	remove := func(names ...string) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			for _, n := range names {
				if err := os.Remove(filepath.Join(dir, n)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, dir string)
		fault  *faultio.Rule
		want   State
		live   int    // ready states: points served
		reason string // quarantined states: a substring of the reason
	}{
		{name: "healthy", want: StateReady, live: 9},
		{name: "snapshot only", damage: remove(seg), want: StateReady, live: 8},
		{name: "one read EIO", want: StateReady, live: 9,
			fault: &faultio.Rule{Op: faultio.OpRead, PathContains: ".discsnap", Times: 1, Err: syscall.EIO}},
		{name: "corrupt snapshot", damage: flip("current.discsnap", func(n int) int { return n / 2 }),
			want: StateQuarantined, reason: "checksum mismatch"},
		{name: "WAL interior bit flip", damage: flip(seg, func(int) int { return firstRecordID }),
			want: StateQuarantined, reason: "record checksum mismatch"},
		{name: "future-epoch segment", damage: func(t *testing.T, dir string) {
			data, err := os.ReadFile(filepath.Join(dir, seg))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "wal.00000002-00000001"), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}, want: StateQuarantined, reason: "from epoch 2"},
		{name: "snapshot missing after checkpoint", damage: remove("current.discsnap"),
			want: StateQuarantined, reason: "missing"},
		{name: "lone torn-header segment", damage: func(t *testing.T, dir string) {
			remove("current.discsnap", seg)(t, dir)
			if err := os.WriteFile(filepath.Join(dir, "wal.00000000-00000001"), []byte("DISCWAL1"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, want: StateQuarantined, reason: "no remembered identity"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := checkpointedDir(t)
			home := filepath.Join(dir, "d")
			if tc.damage != nil {
				tc.damage(t, home)
			}
			before := dirContents(t, home)
			cfg := fastCfg(dir)
			var fsys *faultio.DirFS
			if tc.fault != nil {
				fsys = faultio.NewDirFS(tc.fault)
				cfg.FS = fsys
			}
			m := New(cfg)
			defer m.Close()
			if _, err := m.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			d, err := m.Get("d")
			if err != nil {
				t.Fatal(err)
			}
			st, reason := d.Status()
			if st != tc.want {
				t.Fatalf("state = %s (%s), want %s", st, reason, tc.want)
			}
			if fsys != nil && fsys.Fired() != 1 {
				t.Fatalf("faults fired = %d, want 1", fsys.Fired())
			}
			if tc.want == StateReady {
				if got := d.Info().Live; got != tc.live {
					t.Fatalf("Live = %d, want %d", got, tc.live)
				}
				return
			}
			if !strings.Contains(reason, tc.reason) {
				t.Fatalf("reason %q does not mention %q", reason, tc.reason)
			}
			if after := dirContents(t, home); !reflect.DeepEqual(after, before) {
				t.Fatal("a refused recovery changed the files it refused")
			}
		})
	}
}

// TestRecoverQuarantinesMalformedAdjacency: a checkpoint whose
// coverage graph is well framed and checksummed but not a valid
// adjacency — a self-loop, an unsorted row, a repeated neighbour — is
// refused by the open, so the dataset quarantines and its files are
// left as found.
func TestRecoverQuarantinesMalformedAdjacency(t *testing.T) {
	for _, tc := range []struct {
		name string
		row0 []object.Neighbor
	}{
		{"self-loop", []object.Neighbor{{ID: 0, Dist: 0}, {ID: 1, Dist: 0.5}}},
		{"unsorted", []object.Neighbor{{ID: 2, Dist: 0.5}, {ID: 1, Dist: 0.5}}},
		{"duplicate", []object.Neighbor{{ID: 1, Dist: 0.5}, {ID: 1, Dist: 0.5}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := checkpointedDir(t)
			home := filepath.Join(dir, "d")
			path := filepath.Join(home, "current.discsnap")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			s, err := snap.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			offsets := make([]int32, s.N+1)
			for i := 1; i <= s.N; i++ {
				offsets[i] = int32(len(tc.row0))
			}
			s.Graph = &grid.CSR{Offsets: offsets, Nbrs: tc.row0}
			if err := snap.WriteFileAtomic(path, func(w io.Writer) error { return snap.Write(w, s) }); err != nil {
				t.Fatal(err)
			}
			before := dirContents(t, home)
			m := New(fastCfg(dir))
			defer m.Close()
			if _, err := m.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			d, err := m.Get("d")
			if err != nil {
				t.Fatal(err)
			}
			if st, reason := d.Status(); st != StateQuarantined || !strings.Contains(reason, "invalid neighbour list") {
				t.Fatalf("state = %s (%s), want %s over the invalid neighbour list", st, reason, StateQuarantined)
			}
			if after := dirContents(t, home); !reflect.DeepEqual(after, before) {
				t.Fatal("a refused recovery changed the files it refused")
			}
		})
	}
}

// TestRecoverReadsSnapshotOnce: recovering a checkpointed dataset
// decodes its snapshot exactly once — the open is the only validation.
func TestRecoverReadsSnapshotOnce(t *testing.T) {
	dir := checkpointedDir(t)
	reads := telemetry.Default().Histogram("disc_snapshot_read_seconds", "")
	before := reads.Count()
	m := New(fastCfg(dir))
	defer m.Close()
	if serving, err := m.Recover(); err != nil || serving != 1 {
		t.Fatalf("Recover = (%d, %v), want (1, nil)", serving, err)
	}
	if got := reads.Count() - before; got != 1 {
		t.Fatalf("snapshot decodes during recovery = %d, want 1", got)
	}
}

// treeContents maps every path under dir, directories included, to the
// bytes it holds ("" for a directory).
func treeContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(p string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			out[p] = ""
			return err
		}
		data, err := os.ReadFile(p)
		out[p] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRecoverSkipsNonDatasets: a directory holding no snapshot, log
// segment or sidecar — the empty home a crash leaves between Create's
// mkdir and its first segment — and a top-level regular file are not
// datasets. Recovery serves neither, writes nothing, and the name
// stays free for a later Create.
func TestRecoverSkipsNonDatasets(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "ghost"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("not a dataset\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := treeContents(t, dir)
	m := New(fastCfg(dir))
	defer m.Close()
	if serving, err := m.Recover(); err != nil || serving != 0 {
		t.Fatalf("Recover = (%d, %v), want (0, nil)", serving, err)
	}
	if n := len(m.List()); n != 0 {
		t.Fatalf("recovery registered %d datasets, want 0", n)
	}
	if after := treeContents(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("recovery changed the data directory: %v -> %v", before, after)
	}
	if _, err := m.Create("ghost", "euclidean", 2.0, seedPoints(3)); err != nil {
		t.Fatalf("Create over an empty home: %v", err)
	}
}

// syncRecorder is a vfs.FS that records every directory it syncs.
type syncRecorder struct {
	vfs.FS
	mu   sync.Mutex
	dirs []string
}

func (r *syncRecorder) SyncDir(dir string) error {
	r.mu.Lock()
	r.dirs = append(r.dirs, dir)
	r.mu.Unlock()
	return r.FS.SyncDir(dir)
}

// TestCreateSyncsDataDir: a durable Create makes its new home durable
// by syncing the data directory, and a failure there fails the Create
// instead of acknowledging a dataset a power loss could drop.
func TestCreateSyncsDataDir(t *testing.T) {
	dir := t.TempDir()
	rec := &syncRecorder{FS: vfs.OS}
	cfg := fastCfg(dir)
	cfg.FS = rec
	m := New(cfg)
	if _, err := m.Create("alpha", "euclidean", 2.0, seedPoints(3)); err != nil {
		t.Fatalf("Create: %v", err)
	}
	m.Close()
	if !slices.Contains(rec.dirs, dir) {
		t.Fatalf("Create synced %v, want the data directory %s among them", rec.dirs, dir)
	}

	fsys := faultio.NewDirFS(&faultio.Rule{Op: faultio.OpSyncDir, PathContains: dir, Times: 1})
	cfg.FS = fsys
	m2 := New(cfg)
	defer m2.Close()
	_, err := m2.Create("beta", "euclidean", 2.0, seedPoints(3))
	var pe *os.PathError
	if !errors.As(err, &pe) || pe.Path != dir || !errors.Is(err, faultio.ErrInjectedSync) {
		t.Fatalf("Create under a failing sync of %s = %v, want that sync's error", dir, err)
	}
	if _, err := m2.Get("beta"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("a failed Create registered the dataset: %v", err)
	}
	if _, err := m2.Create("beta", "euclidean", 2.0, seedPoints(3)); err != nil {
		t.Fatalf("Create retry: %v", err)
	}
}

// TestRecoverStaticHomes pins where boot recovery leaves a static home
// (static.discsnap): a whole file serves on the index it records, an
// I/O fault is retried, and damaged bytes or a home that also holds a
// live dataset's files quarantine with every file left as found.
func TestRecoverStaticHomes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, home string)
		fault  *faultio.Rule
		want   State
		reason string // quarantined states: a substring of the reason
	}{
		{name: "healthy", want: StateReady},
		{name: "one read EIO", want: StateReady,
			fault: &faultio.Rule{Op: faultio.OpRead, PathContains: "static.discsnap", Times: 1, Err: syscall.EIO}},
		{name: "bit flip", want: StateQuarantined, reason: "static.discsnap", damage: func(t *testing.T, home string) {
			p := filepath.Join(home, "static.discsnap")
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x40
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "static and live files", want: StateQuarantined, reason: "holds both", damage: func(t *testing.T, home string) {
			if err := os.WriteFile(filepath.Join(home, "wal.00000000-00000001"), []byte("DISCWAL1"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			div, err := disc.New(seedPoints(9))
			if err != nil {
				t.Fatal(err)
			}
			m := New(fastCfg(dir))
			d, err := m.CreateStatic("d", "euclidean", div)
			if err != nil {
				t.Fatalf("CreateStatic: %v", err)
			}
			if _, _, err := d.Save(); err != nil {
				t.Fatalf("Save: %v", err)
			}
			m.Close()
			home := filepath.Join(dir, "d")
			if tc.damage != nil {
				tc.damage(t, home)
			}
			before := dirContents(t, home)
			cfg := fastCfg(dir)
			var fsys *faultio.DirFS
			if tc.fault != nil {
				fsys = faultio.NewDirFS(tc.fault)
				cfg.FS = fsys
			}
			m2 := New(cfg)
			defer m2.Close()
			if _, err := m2.Recover(); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			d2, err := m2.Get("d")
			if err != nil {
				t.Fatal(err)
			}
			if !d2.IsStatic() {
				t.Fatal("a static home recovered as a live dataset")
			}
			st, reason := d2.Status()
			if st != tc.want {
				t.Fatalf("state = %s (%s), want %s", st, reason, tc.want)
			}
			if fsys != nil && fsys.Fired() != 1 {
				t.Fatalf("faults fired = %d, want 1", fsys.Fired())
			}
			if tc.want == StateReady {
				s, err := d2.Static()
				if err != nil || s.Size != 9 || s.Dim != 2 || s.Metric != "euclidean" {
					t.Fatalf("Static = %+v, %v; want 9 2-d euclidean points", s, err)
				}
				return
			}
			if !strings.Contains(reason, tc.reason) {
				t.Fatalf("reason %q does not mention %q", reason, tc.reason)
			}
			if after := dirContents(t, home); !reflect.DeepEqual(after, before) {
				t.Fatal("a refused recovery changed the files it refused")
			}
		})
	}
}
