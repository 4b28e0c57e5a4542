// Package manager supervises the lifecycle of every dataset a server
// process owns, so one dataset's disk failing — an EIO mid-append, an
// ENOSPC during checkpoint, a flipped bit discovered at boot — never
// alters another dataset's responses.
//
// Each dataset moves through a small state machine, driven by a
// per-dataset supervisor goroutine:
//
//	loading ──ok──▶ ready ──storage fault──▶ loading (recovery)
//	   │                                        │
//	   ├─retries exhausted, last-good snapshot──▶ degraded (read-only)
//	   │                                        │ (keeps retrying)
//	   └──interior corruption──▶ quarantined ◀──┘
//	                                  │ operator Unquarantine
//	                                  ▼
//	                               loading
//
// Recovery retries transient failures with bounded exponential backoff
// plus jitter; interior corruption (a checksum mismatch, a sequence
// gap, a log whose snapshot is gone) is not retried — the dataset is
// quarantined loudly: a QUARANTINE sidecar file records the reason on
// disk, a counter and a structured log line record it for operators,
// and every request for that dataset (and only that dataset) answers
// 503 until an operator intervenes. When a readable last-good snapshot
// exists, a dataset whose log cannot be reopened serves read-only
// selections from the snapshot instead of going dark (degraded mode).
//
// A dataset is one of two kinds sharing one namespace: live (an
// incremental disc.Updater, durable through a snapshot and a
// write-ahead log) or static (a disc.Diversifier over a fixed point
// set, durable once Save writes its static.discsnap). Memory-only
// datasets have no backing files; they are born ready and have no
// storage to fail, so their supervisor only waits for shutdown. See
// docs/OPERATIONS.md for the operator's view.
package manager

import (
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	disc "github.com/discdiversity/disc"
	"github.com/discdiversity/disc/internal/vfs"
	"github.com/discdiversity/disc/internal/wal"
)

// State names a dataset lifecycle state. The values are wire-stable:
// they appear in /readyz, dataset info bodies and metric labels.
type State string

const (
	// StateLoading covers initial recovery and every re-open after a
	// storage fault; requests answer 503 with a Retry-After hint.
	StateLoading State = "loading"
	// StateReady serves reads and mutations.
	StateReady State = "ready"
	// StateDegraded serves read-only selections from the last good
	// snapshot while recovery keeps retrying; mutations answer 503.
	StateDegraded State = "degraded"
	// StateQuarantined marks unrecoverable corruption: everything
	// answers 503 until an operator runs the unquarantine runbook.
	StateQuarantined State = "quarantined"
	// StateClosed is terminal (manager shutdown).
	StateClosed State = "closed"
)

// states enumerates every state, for the one-hot state gauges.
var states = []State{StateLoading, StateReady, StateDegraded, StateQuarantined, StateClosed}

// Config parameterises a Manager. The zero value is a memory-only
// manager (no Dir): datasets live and die with the process.
type Config struct {
	// Dir is the durable storage directory; empty means memory-only
	// datasets. Each durable dataset owns a home directory: a live one
	// holds <dir>/<name>/current.discsnap and <dir>/<name>/wal.*, a
	// static one <dir>/<name>/static.discsnap, and either may hold a
	// <dir>/<name>/QUARANTINE sidecar.
	Dir string

	// Fsync and FsyncInterval configure the write-ahead logs of durable
	// datasets (see disc.FsyncPolicy).
	Fsync         disc.FsyncPolicy
	FsyncInterval time.Duration

	// FS is the storage filesystem; nil means the real one. The chaos
	// properties inject a faultio.DirFS here.
	FS vfs.FS

	// Logger receives quarantine and recovery reports; nil means
	// slog.Default.
	Logger *slog.Logger

	// Recovery backoff: the delay starts at BackoffBase, doubles per
	// failed attempt up to BackoffCap (full jitter applied), and after
	// MaxAttempts consecutive failures the dataset parks — degraded when
	// a last-good snapshot serves, otherwise still loading — and keeps
	// retrying at the cap. Zeroes mean 50ms / 5s / 5.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	MaxAttempts int
}

// Manager supervises a set of named datasets. Safe for concurrent use.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	datasets map[string]*Dataset
	closed   bool
}

// New builds a Manager; no I/O happens until Create or Recover.
func New(cfg Config) *Manager {
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffCap < cfg.BackoffBase {
		cfg.BackoffCap = 5 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	return &Manager{cfg: cfg, datasets: make(map[string]*Dataset)}
}

// Durable reports whether datasets are backed by on-disk state.
func (m *Manager) Durable() bool { return m.cfg.Dir != "" }

func (m *Manager) fs() vfs.FS {
	if m.cfg.FS != nil {
		return m.cfg.FS
	}
	return vfs.OS
}

func (m *Manager) logger() *slog.Logger {
	if m.cfg.Logger != nil {
		return m.cfg.Logger
	}
	return slog.Default()
}

// The file names inside a dataset home.
const (
	snapFile   = "current.discsnap"
	walBase    = "wal" // segments add .<epoch>-<seq>
	staticFile = "static.discsnap"
	quarFile   = "QUARANTINE"
)

// dsPaths are the files of one durable dataset, all inside its home.
type dsPaths struct {
	snap   string // live checkpoint snapshot
	wal    string // live write-ahead log base path
	static string // static dataset snapshot
	quar   string // quarantine sidecar
	home   string // <dir>/<name>, made by Create or a static Save
}

func (m *Manager) paths(name string) dsPaths {
	home := filepath.Join(m.cfg.Dir, name)
	return dsPaths{
		snap:   filepath.Join(home, snapFile),
		wal:    filepath.Join(home, walBase),
		static: filepath.Join(home, staticFile),
		quar:   filepath.Join(home, quarFile),
		home:   home,
	}
}

// ErrNotFound reports a name no dataset answers to; ErrExists a create
// colliding with a registered dataset of either kind or with on-disk
// durable state; ErrMemoryOnly a Save on a manager without storage.
var (
	ErrNotFound   = errors.New("manager: no such dataset")
	ErrExists     = errors.New("manager: dataset already exists")
	ErrMemoryOnly = errors.New("manager: memory-only dataset")
)

// UnavailableError explains why a dataset cannot serve a request right
// now: its state, the recovery/quarantine reason, and how long a
// client should wait before retrying. Servers map it to 503 with a
// Retry-After header.
type UnavailableError struct {
	Dataset    string
	State      State
	Reason     string
	RetryAfter time.Duration
}

func (e *UnavailableError) Error() string {
	msg := fmt.Sprintf("dataset %q is %s", e.Dataset, e.State)
	if e.Reason != "" {
		msg += ": " + e.Reason
	}
	return msg
}

// openOpts assembles the disc options for opening a durable dataset.
func (m *Manager) openOpts(metric disc.Metric) []disc.Option {
	opts := []disc.Option{disc.WithMetric(metric), disc.WithFsync(m.cfg.Fsync)}
	if m.cfg.FsyncInterval > 0 {
		opts = append(opts, disc.WithFsyncInterval(m.cfg.FsyncInterval))
	}
	if m.cfg.FS != nil {
		opts = append(opts, disc.WithStorageFS(m.cfg.FS))
	}
	return opts
}

// Create registers a new dataset maintaining radius r under the named
// metric, seeded with points (which may be empty). Durable managers
// refuse names whose on-disk state a previous life left behind — that
// is Recover's job, and seeding on top of it would corrupt the
// recovered history (ErrExists) — and make the new home durable (the
// storage directory is synced) before the first write lands in it.
// The dataset is ready on return.
func (m *Manager) Create(name, metricName string, r float64, points []disc.Point) (*Dataset, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	metric, err := disc.MetricByName(metricName)
	if err != nil {
		return nil, err
	}

	if err := m.admit(name, nil); err != nil {
		return nil, err
	}

	var u *disc.Updater
	p := m.paths(name)
	if m.Durable() {
		if err := m.refuseLeftoverState(name, p); err != nil {
			return nil, err
		}
		if err := m.fs().MkdirAll(p.home, 0o755); err != nil {
			return nil, err
		}
		if err := m.fs().SyncDir(m.cfg.Dir); err != nil {
			return nil, fmt.Errorf("manager: making the home of %q durable: %w", name, err)
		}
		u, err = disc.OpenUpdater(p.snap, p.wal, r, m.openOpts(metric)...)
		if err != nil {
			return nil, err
		}
		for _, pt := range points {
			if _, err := u.Insert(pt); err != nil {
				u.Close()
				return nil, err
			}
		}
		u.Flush()
	} else {
		u, err = disc.NewUpdater(points, r, disc.WithMetric(metric))
		if err != nil {
			return nil, err
		}
	}

	d := m.newDataset(name, p)
	d.state = StateReady
	d.metric = metricName
	d.radius = r
	d.upd = u
	if err := m.admit(name, d); err != nil {
		u.Close()
		return nil, err
	}
	return d, nil
}

// CreateStatic registers a ready static dataset serving div (and the
// labels div carries) under the metric name the client gave.
// It lives in memory until Save writes it into its home; a durable
// manager refuses a name with on-disk state, as Create does.
func (m *Manager) CreateStatic(name, metricName string, div *disc.Diversifier) (*Dataset, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	p := m.paths(name)
	if m.Durable() {
		if err := m.refuseLeftoverState(name, p); err != nil {
			return nil, err
		}
	}
	d := m.newDataset(name, p)
	d.state = StateReady
	d.metric = metricName
	d.static = true
	d.st = newStatic(metricName, div)
	if err := m.admit(name, d); err != nil {
		return nil, err
	}
	return d, nil
}

// admit errors when the manager is closed or name is taken by a
// dataset of either kind. A non-nil d is then registered under name,
// published as ready and handed its supervisor.
func (m *Manager) admit(name string, d *Dataset) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("manager: closed")
	}
	if _, exists := m.datasets[name]; exists {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	if d != nil {
		m.datasets[name] = d
		setStateGauge(name, StateReady)
		go d.supervise()
	}
	return nil
}

// refuseLeftoverState errors when durable state already exists on disk
// under this name (a checkpoint or static snapshot, log segments, or a
// quarantine sidecar).
func (m *Manager) refuseLeftoverState(name string, p dsPaths) error {
	fsys := m.fs()
	if _, err := fsys.Stat(p.quar); err == nil {
		return fmt.Errorf("%w: %q is quarantined on disk (%s); run the unquarantine runbook", ErrExists, name, p.quar)
	}
	for _, snap := range []string{p.snap, p.static} {
		if _, err := fsys.Stat(snap); err == nil {
			return fmt.Errorf("%w: %q has a snapshot on disk (%s); restart with recovery to resume it", ErrExists, name, snap)
		}
	}
	if _, err := wal.DescribeFS(fsys, p.wal); err == nil {
		return fmt.Errorf("%w: %q has a write-ahead log on disk; restart with recovery to resume it", ErrExists, name)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// Get returns the named dataset, or ErrNotFound.
func (m *Manager) Get(name string) (*Dataset, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.datasets[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return d, nil
}

// List returns every dataset, sorted by name.
func (m *Manager) List() []*Dataset {
	m.mu.Lock()
	ds := make([]*Dataset, 0, len(m.datasets))
	for _, d := range m.datasets {
		ds = append(ds, d)
	}
	m.mu.Unlock()
	sort.Slice(ds, func(i, j int) bool { return ds[i].name < ds[j].name })
	return ds
}

// States reports each dataset's current state and reason — the /readyz
// payload.
func (m *Manager) States() map[string]DatasetStatus {
	out := make(map[string]DatasetStatus)
	for _, d := range m.List() {
		st, reason := d.Status()
		out[d.name] = DatasetStatus{State: st, Reason: reason}
	}
	return out
}

// DatasetStatus is one entry of States.
type DatasetStatus struct {
	State  State  `json:"state"`
	Reason string `json:"reason,omitempty"`
}

// Recover scans the storage directory for datasets a previous process
// left behind and recovers each one independently, under its own
// supervisor: a dataset that needs ten backoff retries — or that turns
// out to be corrupt and is quarantined — does not delay or fail the
// others. It blocks until every discovered dataset settles (ready,
// degraded, parked retrying, or quarantined) and returns how many are
// serving (ready or degraded). The scan itself failing (the directory
// unreadable) is the only error.
func (m *Manager) Recover() (int, error) {
	if !m.Durable() {
		return 0, nil
	}
	names, err := m.scan()
	if err != nil {
		return 0, err
	}
	var spawned []*Dataset
	m.mu.Lock()
	for _, name := range names {
		if _, exists := m.datasets[name]; exists {
			m.mu.Unlock()
			return 0, fmt.Errorf("manager: dataset %q already loaded", name)
		}
		d := m.newDataset(name, m.paths(name))
		d.state = StateLoading
		m.datasets[name] = d
		spawned = append(spawned, d)
	}
	m.mu.Unlock()
	for _, d := range spawned {
		setStateGauge(d.name, StateLoading)
		go d.supervise()
	}
	serving := 0
	for _, d := range spawned {
		<-d.settled
		if st, _ := d.Status(); st == StateReady || st == StateDegraded {
			serving++
		}
	}
	return serving, nil
}

// scan lists the dataset names present on disk, in sorted order: the
// subdirectories of Dir that hold a snapshot (live or static), a log
// segment or a quarantine sidecar. Anything else is skipped with a
// warning rather than trusted — a regular file, an empty home a crash
// left between Create's mkdir and its first segment, a stray
// lost+found, or an invalid name (anything ValidateName rejects; the
// scan feeds filepath.Join). A home whose listing fails is kept: its
// supervisor retries the fault or quarantines it.
func (m *Manager) scan() ([]string, error) {
	entries, err := m.fs().ReadDir(m.cfg.Dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() {
			m.logger().Warn("skipping non-directory in the data directory", "name", n)
			continue
		}
		if err := ValidateName(n); err != nil {
			m.logger().Warn("skipping dataset with invalid name", "name", n, "err", err)
			continue
		}
		c, err := m.contents(filepath.Join(m.cfg.Dir, n))
		if err == nil && !c.static && !c.live && !c.quar {
			m.logger().Warn("skipping directory that holds no dataset", "name", n)
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// contents is what a dataset home holds.
type contents struct {
	static bool // static.discsnap
	live   bool // current.discsnap or a log segment
	quar   bool // a quarantine sidecar
}

// contents lists the home at path; a missing home holds nothing.
func (m *Manager) contents(path string) (contents, error) {
	var c contents
	entries, err := m.fs().ReadDir(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return c, err
	}
	for _, e := range entries {
		switch n := e.Name(); {
		case n == staticFile:
			c.static = true
		case n == snapFile || strings.HasPrefix(n, walBase+"."):
			c.live = true
		case n == quarFile:
			c.quar = true
		}
	}
	return c, nil
}

// Unquarantine lifts a quarantine after an operator has repaired or
// replaced the damaged files (see docs/OPERATIONS.md): the sidecar is
// removed and the dataset re-enters recovery. It returns once the
// dataset settles again — ready, degraded, or re-quarantined if the
// state is still bad.
func (m *Manager) Unquarantine(name string) error {
	d, err := m.Get(name)
	if err != nil {
		return err
	}
	d.mu.Lock()
	if d.state != StateQuarantined {
		st := d.state
		d.mu.Unlock()
		return fmt.Errorf("manager: dataset %q is %s, not quarantined", name, st)
	}
	if err := m.fs().Remove(d.paths.quar); err != nil && !errors.Is(err, fs.ErrNotExist) {
		d.mu.Unlock()
		return err
	}
	d.state = StateLoading
	d.reason = ""
	d.resetSettle()
	d.mu.Unlock()
	setStateGauge(name, StateLoading)
	m.logger().Info("dataset unquarantined", "dataset", name)
	d.kickNow()
	<-d.settledCh()
	return nil
}

// Close stops every supervisor and closes every dataset's write-ahead
// log, syncing acknowledged mutations. In-memory state stays readable
// (matching disc.Updater.Close), but mutations fail afterwards.
func (m *Manager) Close() error {
	m.mu.Lock()
	m.closed = true
	ds := make([]*Dataset, 0, len(m.datasets))
	for _, d := range m.datasets {
		ds = append(ds, d)
	}
	m.mu.Unlock()
	var first error
	for _, d := range ds {
		if err := d.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
