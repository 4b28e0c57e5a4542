package manager

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"math/rand/v2"
	"os"
	"sync"
	"time"

	disc "github.com/discdiversity/disc"
	"github.com/discdiversity/disc/internal/snap"
	"github.com/discdiversity/disc/internal/vfs"
	"github.com/discdiversity/disc/internal/wal"
)

// Dataset is one supervised dataset. All exported methods are safe for
// concurrent use; state transitions are owned by the supervisor
// goroutine (plus Unquarantine and close).
type Dataset struct {
	name  string
	m     *Manager
	paths dsPaths

	mu      sync.Mutex
	state   State
	reason  string
	metric  string
	radius  float64
	static  bool    // the kind: static (st) rather than live (upd, deg)
	st      *Static // the ready static engine
	upd     *disc.Updater
	deg     *DegradedView
	retryAt time.Time
	settled chan struct{}

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

func (m *Manager) newDataset(name string, p dsPaths) *Dataset {
	return &Dataset{
		name:    name,
		m:       m,
		paths:   p,
		settled: make(chan struct{}),
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// Name returns the dataset's name.
func (d *Dataset) Name() string { return d.name }

// Status reports the current state and, for non-ready states, the
// human-readable reason.
func (d *Dataset) Status() (State, string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state, d.reason
}

// RetryAfter hints how long a client should wait before retrying a
// 503: the time until the supervisor's next recovery attempt, floored
// at one second.
func (d *Dataset) RetryAfter() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	wait := time.Until(d.retryAt)
	if wait < time.Second {
		wait = time.Second
	}
	return wait.Round(time.Second)
}

// Updater returns the live engine when the dataset is ready; otherwise
// an *UnavailableError naming the state. The returned updater stays
// valid even if a fault lands mid-request — a superseded instance
// refuses further mutations with its own error rather than racing.
func (d *Dataset) Updater() (*disc.Updater, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state == StateReady && d.upd != nil {
		return d.upd, nil
	}
	return nil, d.unavailableLocked()
}

// IsStatic reports whether the dataset is static (served by Static)
// rather than live (served by Updater and View).
func (d *Dataset) IsStatic() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.static
}

// Static returns the engine of a ready static dataset; otherwise an
// *UnavailableError naming the state.
func (d *Dataset) Static() (*Static, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state == StateReady && d.st != nil {
		return d.st, nil
	}
	return nil, d.unavailableLocked()
}

// Static is the engine of a static dataset: a Diversifier over a fixed
// point set, with the shape its routes report. The Diversifier is safe
// for concurrent use, so selects, zooms and saves call it directly.
type Static struct {
	Metric string
	Dim    int
	Size   int

	div *disc.Diversifier

	fpOnce sync.Once
	fp     uint32
}

func newStatic(metric string, div *disc.Diversifier) *Static {
	st := &Static{Metric: metric, Size: div.Len(), div: div}
	if st.Size > 0 {
		st.Dim = div.Point(0).Dim()
	}
	return st
}

// Labels returns the dataset's labels (nil, or one per point).
func (s *Static) Labels() []string { return s.div.Labels() }

// Diversifier returns the dataset's Diversifier.
func (s *Static) Diversifier() *disc.Diversifier { return s.div }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Fingerprint is a CRC-32C over the dataset's content: the metric's
// canonical name, the dimension, the size and every coordinate's
// float64 bits. It is the same in every process, and differs (but for
// chance) once a home's snapshot holds other points. It is computed on
// first use, once per engine.
func (s *Static) Fingerprint() uint32 {
	s.fpOnce.Do(func() {
		buf := make([]byte, 0, 4096)
		buf = append(buf, s.div.Metric().Name()...)
		buf = append(buf, 0)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Dim))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Size))
		var crc uint32
		for i := 0; i < s.Size; i++ {
			for _, x := range s.div.Point(i) {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
			}
			if len(buf) >= 4096-8*s.Dim {
				crc = crc32.Update(crc, castagnoli, buf)
				buf = buf[:0]
			}
		}
		s.fp = crc32.Update(crc, castagnoli, buf)
	})
	return s.fp
}

// ReadView is what a read-path handler gets: exactly one of Upd
// (ready) or Deg (degraded) is non-nil.
type ReadView struct {
	State State
	Upd   *disc.Updater
	Deg   *DegradedView
}

// View returns a read view when the dataset can serve reads (ready or
// degraded), else an *UnavailableError.
func (d *Dataset) View() (ReadView, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case d.state == StateReady && d.upd != nil:
		return ReadView{State: d.state, Upd: d.upd}, nil
	case d.state == StateDegraded && d.deg != nil:
		return ReadView{State: d.state, Deg: d.deg}, nil
	}
	return ReadView{}, d.unavailableLocked()
}

func (d *Dataset) unavailableLocked() *UnavailableError {
	wait := time.Until(d.retryAt)
	if wait < time.Second {
		wait = time.Second
	}
	return &UnavailableError{Dataset: d.name, State: d.state, Reason: d.reason, RetryAfter: wait.Round(time.Second)}
}

// Info is a stable snapshot of a live dataset, in the wire form of its
// listing and info routes. Counts are zero when the dataset cannot
// serve reads.
type Info struct {
	Name     string  `json:"name"`
	Metric   string  `json:"metric"`
	Radius   float64 `json:"radius"`
	Dim      int     `json:"dim"`
	Live     int     `json:"live"`
	Selected int     `json:"selected"`
	Pending  int     `json:"pending"`
	State    State   `json:"state"`
	Reason   string  `json:"reason,omitempty"`
}

// Info captures the dataset's externally visible state.
func (d *Dataset) Info() Info {
	d.mu.Lock()
	defer d.mu.Unlock()
	info := Info{Name: d.name, State: d.state, Reason: d.reason, Metric: d.metric, Radius: d.radius}
	switch {
	case d.state == StateReady && d.upd != nil:
		info.Radius = d.upd.Radius()
		info.Dim = d.upd.Dim()
		info.Live = d.upd.Len()
		info.Selected = d.upd.Size()
		info.Pending = d.upd.Pending()
	case d.state == StateDegraded && d.deg != nil:
		info.Metric = d.deg.Metric
		info.Radius = d.deg.Radius
		info.Dim = d.deg.Dim
		info.Live = d.deg.Live
		info.Selected = len(d.deg.Selection)
	}
	return info
}

// Save writes the dataset into its home and returns the file and its
// size. A live dataset checkpoints into current.discsnap and rotates
// its log; a static one writes static.discsnap crash-atomically,
// prepared index artifacts included. A memory-only manager answers
// ErrMemoryOnly, and a dataset that cannot serve an *UnavailableError.
func (d *Dataset) Save() (string, int64, error) {
	if !d.m.Durable() {
		return "", 0, fmt.Errorf("%w: %q", ErrMemoryOnly, d.name)
	}
	fsys := d.m.fs()
	if !d.IsStatic() {
		u, err := d.Updater()
		if err != nil {
			return "", 0, err
		}
		if err := u.Checkpoint(d.paths.snap); err != nil {
			return "", 0, err
		}
		return fileSize(fsys, d.paths.snap)
	}
	st, err := d.Static()
	if err != nil {
		return "", 0, err
	}
	if err := fsys.MkdirAll(d.paths.home, 0o755); err != nil {
		return "", 0, err
	}
	if err := fsys.SyncDir(d.m.cfg.Dir); err != nil {
		return "", 0, err
	}
	if err := snap.WriteFileAtomicFS(fsys, d.paths.static, st.div.WriteSnapshot); err != nil {
		return "", 0, err
	}
	return fileSize(fsys, d.paths.static)
}

// fileSize returns path and the size of the file there.
func fileSize(fsys vfs.FS, path string) (string, int64, error) {
	fi, err := fsys.Stat(path)
	if err != nil {
		return "", 0, err
	}
	return path, fi.Size(), nil
}

// ReportFault classifies an error from a mutation or checkpoint. A
// storage-class fault (the write-ahead log poisoned itself, or the
// error carries a filesystem *PathError) wakes the supervisor and
// returns true — the server should answer 503, because the client did
// nothing wrong and a retry after recovery will succeed. Anything else
// returns false: a plain bad request.
func (d *Dataset) ReportFault(err error) bool {
	if err == nil {
		return false
	}
	d.mu.Lock()
	broken := d.upd != nil && d.upd.WALBroken() != nil
	d.mu.Unlock()
	var pe *os.PathError
	if !broken && !errors.As(err, &pe) {
		return false
	}
	metFaults.Inc()
	d.m.logger().Error("dataset storage fault", "dataset", d.name, "err", err)
	d.kickNow()
	return true
}

// kickNow wakes the supervisor without blocking (the channel holds one
// pending kick; more are redundant).
func (d *Dataset) kickNow() {
	select {
	case d.kick <- struct{}{}:
	default:
	}
}

func (d *Dataset) settledCh() chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.settled
}

// settle marks the dataset settled (first arrival in a stable state);
// idempotent until resetSettle.
func (d *Dataset) settle() {
	d.mu.Lock()
	defer d.mu.Unlock()
	select {
	case <-d.settled:
	default:
		close(d.settled)
	}
}

// resetSettle re-arms the settled barrier (Unquarantine waits on the
// next settle). Caller holds d.mu.
func (d *Dataset) resetSettle() {
	select {
	case <-d.settled:
		d.settled = make(chan struct{})
	default:
	}
}

// setState publishes a state transition (and its gauge).
func (d *Dataset) setState(st State, reason string) {
	d.mu.Lock()
	d.state = st
	d.reason = reason
	d.mu.Unlock()
	setStateGauge(d.name, st)
}

// close stops the supervisor and closes the engine. Used by
// Manager.Close only.
func (d *Dataset) close() error {
	select {
	case <-d.stop:
	default:
		close(d.stop)
	}
	<-d.done
	d.mu.Lock()
	defer d.mu.Unlock()
	d.state = StateClosed
	var err error
	if d.upd != nil {
		err = d.upd.Close()
	}
	setStateGauge(d.name, StateClosed)
	return err
}

// supervise is the per-dataset supervisor goroutine: it drives the
// state machine until the manager closes. One dataset's supervisor
// never touches another dataset — that is the isolation property the
// chaos suite pins.
func (d *Dataset) supervise() {
	defer close(d.done)
	rng := rand.New(rand.NewPCG(uint64(time.Now().UnixNano()), uint64(len(d.name))))
	backoff := d.m.cfg.BackoffBase
	attempts := 0
	for {
		st, _ := d.Status()
		switch st {
		case StateClosed:
			return
		case StateReady:
			select {
			case <-d.stop:
				return
			case <-d.kick:
				// Only a poisoned write-ahead log needs recovery; a
				// checkpoint whose snapshot write failed leaves the log
				// healthy and the dataset fully serviceable.
				d.mu.Lock()
				broken := error(nil)
				if d.upd != nil {
					broken = d.upd.WALBroken()
				}
				if broken == nil {
					d.mu.Unlock()
					continue
				}
				// The in-memory engine may hold operations whose log append
				// failed — unacknowledged state. Recovery must reopen from
				// disk, the acknowledged prefix, never from this instance.
				d.upd.Close()
				d.upd = nil
				d.state = StateLoading
				d.reason = fmt.Sprintf("write-ahead log fault: %v", broken)
				d.resetSettle()
				d.mu.Unlock()
				setStateGauge(d.name, StateLoading)
				d.m.logger().Warn("dataset entering recovery", "dataset", d.name, "err", broken)
				attempts, backoff = 0, d.m.cfg.BackoffBase
			}
		case StateQuarantined:
			select {
			case <-d.stop:
				return
			case <-d.kick:
				// Unquarantine flipped the state to loading already; a
				// spurious kick loops back here harmlessly.
				attempts, backoff = 0, d.m.cfg.BackoffBase
			}
		default: // StateLoading, StateDegraded
			err := d.tryOpen()
			if err == nil {
				metRecoveries.Inc()
				d.m.logger().Info("dataset recovered", "dataset", d.name)
				attempts, backoff = 0, d.m.cfg.BackoffBase
				d.settle()
				continue
			}
			if !retryable(err) {
				d.quarantine(err)
				d.settle()
				continue
			}
			attempts++
			metRetries.Inc()
			d.m.logger().Warn("dataset recovery attempt failed",
				"dataset", d.name, "attempt", attempts, "err", err)
			d.mu.Lock()
			d.reason = err.Error()
			d.mu.Unlock()
			if attempts >= d.m.cfg.MaxAttempts {
				// Park: serve read-only from the last good snapshot when
				// one exists, and keep retrying at the cap either way.
				if d.tryDegrade() {
					d.m.logger().Warn("dataset serving degraded (read-only) from last snapshot",
						"dataset", d.name, "err", err)
				}
				d.settle()
			}
			// Full jitter: a fleet of datasets felled by one disk must not
			// retry in lockstep.
			wait := time.Duration(rng.Int64N(int64(backoff))) + backoff/2
			if backoff *= 2; backoff > d.m.cfg.BackoffCap {
				backoff = d.m.cfg.BackoffCap
			}
			d.mu.Lock()
			d.retryAt = time.Now().Add(wait)
			d.mu.Unlock()
			select {
			case <-d.stop:
				return
			case <-d.kick:
			case <-time.After(wait):
			}
		}
	}
}

// retryable reports whether a failed recovery attempt is worth
// repeating: only an I/O failure (an *os.PathError) is. Anything else —
// damaged snapshot or log bytes, a log that does not extend its
// snapshot, a dataset with no identity — fails the same way every time,
// so the supervisor quarantines it.
func retryable(err error) bool {
	var pe *os.PathError
	return errors.As(err, &pe)
}

// tryOpen performs one full recovery attempt: the home's kind and
// sidecar check, then the open — disc.LoadDiversifier for a static home;
// identity and disc.OpenUpdater for a live one, which validates every
// snapshot and log byte as it loads them and leaves a refused log
// untouched. On success the dataset is ready; on failure retryable
// picks backoff or quarantine.
func (d *Dataset) tryOpen() error {
	fsys := d.m.fs()
	c, err := d.m.contents(d.paths.home)
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.static = c.static
	d.mu.Unlock()
	// A sidecar left by a previous life keeps the dataset out until an
	// operator removes it — rebooting must not clear a quarantine.
	if c.quar {
		data, err := fsys.ReadFile(d.paths.quar)
		if err != nil {
			return err
		}
		return fmt.Errorf("quarantine sidecar present: %s", bytes.TrimSpace(data))
	}
	if c.static {
		if c.live {
			return fmt.Errorf("home holds both %s and a live dataset's %s or %s.* files; remove one set", staticFile, snapFile, walBase)
		}
		return d.openStatic(fsys)
	}

	radius, metricName, err := d.identity(fsys)
	if err != nil {
		return err
	}
	metric, err := disc.MetricByName(metricName)
	if err != nil {
		return err
	}
	u, err := disc.OpenUpdater(d.paths.snap, d.paths.wal, radius, d.m.openOpts(metric)...)
	if err != nil {
		return err
	}

	d.mu.Lock()
	d.upd = u
	d.metric = metricName
	d.radius = radius
	d.deg = nil
	d.state = StateReady
	d.reason = ""
	d.mu.Unlock()
	setStateGauge(d.name, StateReady)
	return nil
}

// openStatic loads the home's static snapshot. The dataset keeps the
// index and labels its file records.
func (d *Dataset) openStatic(fsys vfs.FS) error {
	data, err := fsys.ReadFile(d.paths.static)
	if err != nil {
		return err
	}
	div, err := disc.LoadDiversifier(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("%s: %w", d.paths.static, err)
	}
	st := newStatic(div.Metric().Name(), div)
	d.mu.Lock()
	d.st = st
	d.metric = st.Metric
	d.state = StateReady
	d.reason = ""
	d.mu.Unlock()
	setStateGauge(d.name, StateReady)
	return nil
}

// identity resolves the radius and metric the dataset maintains: the
// log's segment header names them; a log-less dataset's checkpointed
// coverage-graph radius is its identity; a freshly created dataset
// remembers them from Create.
func (d *Dataset) identity(fsys vfs.FS) (float64, string, error) {
	info, err := wal.DescribeFS(fsys, d.paths.wal)
	if err == nil {
		return info.Radius, info.Metric, nil
	}
	if retryable(err) || errors.Is(err, wal.ErrCorrupt) {
		return 0, "", err
	}
	// No log, or only a segment whose header a crash inside a durable
	// Create tore: it names nothing, and the open prunes it.
	data, err := fsys.ReadFile(d.paths.snap)
	if err == nil {
		s, err := snap.Decode(data)
		if err != nil {
			return 0, "", fmt.Errorf("%s: %w", d.paths.snap, err)
		}
		if s.GraphRadius <= 0 {
			return 0, "", errors.New("checkpoint has no coverage graph; cannot determine the dataset's radius")
		}
		return s.GraphRadius, s.Metric, nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return 0, "", err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.metric == "" {
		return 0, "", fmt.Errorf("no snapshot, no log, no remembered identity for %q", d.name)
	}
	return d.radius, d.metric, nil
}

// quarantine transitions into StateQuarantined: sidecar on disk,
// structured log line, counter. Loud by design.
func (d *Dataset) quarantine(cause error) {
	reason := cause.Error()
	d.mu.Lock()
	if d.upd != nil {
		d.upd.Close()
		d.upd = nil
	}
	d.deg = nil
	d.state = StateQuarantined
	d.reason = reason
	d.mu.Unlock()
	setStateGauge(d.name, StateQuarantined)
	metQuarantines.Inc()
	d.m.logger().Error("DATASET QUARANTINED: unrecoverable corruption; operator action required (see docs/OPERATIONS.md)",
		"dataset", d.name, "reason", reason, "sidecar", d.paths.quar)
	// Best-effort sidecar write (the disk may be the problem); an
	// existing sidecar is preserved — it names the original cause.
	if _, err := d.m.fs().Stat(d.paths.quar); err != nil {
		body, _ := json.Marshal(map[string]string{
			"dataset": d.name,
			"reason":  reason,
			"time":    time.Now().UTC().Format(time.RFC3339),
		})
		if werr := d.m.fs().WriteFile(d.paths.quar, append(body, '\n'), 0o644); werr != nil {
			d.m.logger().Error("quarantine sidecar write failed", "dataset", d.name, "err", werr)
		}
	}
}

// DegradedView is the read-only stand-in served while recovery keeps
// failing: the last good checkpoint's points and the selection a
// from-scratch coverage-graph Select computes over them.
type DegradedView struct {
	Radius    float64
	Metric    string
	Dim       int
	Live      int
	Selection []int
}

// tryDegrade loads the last good snapshot into a read-only view and
// enters StateDegraded. Returns false (state unchanged) when no
// readable snapshot with a coverage graph exists. An already-degraded
// dataset keeps its view.
func (d *Dataset) tryDegrade() bool {
	d.mu.Lock()
	if d.state == StateDegraded && d.deg != nil {
		d.mu.Unlock()
		return true
	}
	d.mu.Unlock()

	data, err := d.m.fs().ReadFile(d.paths.snap)
	if err != nil {
		return false
	}
	s, err := snap.Decode(data)
	if err != nil || s.GraphRadius <= 0 || s.Coords == nil {
		return false
	}
	div, err := disc.LoadDiversifier(bytes.NewReader(data))
	if err != nil {
		return false
	}
	res, err := div.Select(s.GraphRadius)
	if err != nil {
		return false
	}
	view := &DegradedView{
		Radius:    s.GraphRadius,
		Metric:    s.Metric,
		Dim:       s.Dim,
		Live:      s.N,
		Selection: res.SortedIDs(),
	}
	d.mu.Lock()
	d.deg = view
	d.state = StateDegraded
	d.mu.Unlock()
	setStateGauge(d.name, StateDegraded)
	metDegraded.Inc()
	return true
}
