// Package server exposes DisC diversification as an HTTP service
// (stdlib net/http only): upload a dataset, request diverse subsets at
// any radius, and zoom results in or out interactively — the usage mode
// the paper's introduction motivates, where each user adapts the
// diversification degree of a shared query result.
//
// API (JSON everywhere):
//
//	POST /v1/datasets                     upload {name, metric, points,
//	                                      labels?, precision?}
//	GET  /v1/datasets                     list datasets
//	GET  /v1/datasets/{name}              dataset info
//	POST /v1/datasets/{name}/select      {radius, algorithm?} -> result
//	POST /v1/datasets/{name}/snapshot    persist the dataset (and any
//	                                      prepared index artifacts) as a
//	                                      .discsnap file in the snapshot
//	                                      directory (see WithSnapshotDir)
//	GET  /v1/results/{id}                 re-fetch a result
//	POST /v1/results/{id}/zoom           {radius} -> adapted result
//	POST /v1/results/{id}/localzoom      {center, radius} -> local view
//	GET  /healthz                         liveness probe
//
// Uploaded datasets run on disc.IndexCoverageGraph, and the Greedy-DisC
// algorithms select with disc.SelectComponents; their selections and
// zooms are the ids the library's default M-tree gives. A radius whose
// graph would pass core.AdjacencyBudget is served by the M-tree (or a
// flat scan), whose memory does not grow with the edge count, so the
// client's radius cannot size the server's heap. Datasets restored by LoadSnapshot keep the
// index their file records.
//
// Live maintainers (incremental r-DisC under inserts/deletes, backed by
// disc.Updater — grid-servable metrics only):
//
//	POST /v1/live                         create {name, radius, metric?, points?}
//	GET  /v1/live                         list live maintainers
//	GET  /v1/live/{name}                  maintainer info (live, selected, pending, state)
//	POST /v1/live/{name}/insert          {point, flush?} -> assigned id
//	POST /v1/live/{name}/delete          {id, flush?} -> updated counts
//	POST /v1/live/{name}/flush           repair dirty components, publish
//	GET  /v1/live/{name}/selection       last published representative ids
//	POST /v1/live/{name}/unquarantine    lift a quarantine after repair
//
// Mutations are bounded-stale by default: reads keep serving the last
// published selection until a flush converges the dirty components.
// Pass "flush": true on a mutation for per-operation convergence.
//
// Every live maintainer is owned by a supervised lifecycle (see
// internal/manager and docs/OPERATIONS.md): a dataset whose disk
// fails recovers — or quarantines — independently, answering 503 with
// a Retry-After hint while every other dataset keeps serving. With
// WithDataDir each maintainer is durable in its own home directory
// (<dir>/<name>/current.discsnap, <dir>/<name>/wal.*,
// <dir>/<name>/QUARANTINE), and RestoreLive recovers every home after
// a restart.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	disc "github.com/discdiversity/disc"
	"github.com/discdiversity/disc/internal/manager"
	"github.com/discdiversity/disc/internal/snap"
	"github.com/discdiversity/disc/internal/vfs"
)

// Server is the HTTP handler. Create with New; it is safe for concurrent
// use.
type Server struct {
	mux sync.Mutex

	snapshotDir string

	// Live-durability configuration (WithDataDir and friends): when
	// dataDir is set, each live maintainer is created through
	// disc.OpenUpdater with a snapshot + write-ahead log pair in its
	// home under that directory, and RestoreLive resumes them after a
	// restart.
	dataDir           string
	liveFsync         disc.FsyncPolicy
	liveFsyncInterval time.Duration
	storageFS         vfs.FS
	backoffBase       time.Duration
	backoffCap        time.Duration
	maxAttempts       int

	// Request-hardening configuration (see middleware.go).
	maxInflight    int
	requestTimeout time.Duration
	maxBodyBytes   int64

	// Observability: structured logger (WithLogger), readiness flag
	// (SetReady; true from birth so embedded servers need no opt-in) and
	// the per-request id sequence.
	log    *slog.Logger
	ready  atomic.Bool
	reqSeq atomic.Uint64

	datasets map[string]*datasetState
	results  map[string]*resultState
	nextID   int

	// mgr owns every live maintainer's lifecycle: supervised recovery,
	// corruption quarantine, degraded-mode reads. Built by New after
	// the options have resolved the storage layout.
	mgr *manager.Manager
}

// Option configures New.
type Option func(*Server)

// WithSnapshotDir enables the snapshot-save endpoint, writing
// <dir>/<dataset>.discsnap files. An empty dir leaves the endpoint
// disabled.
func WithSnapshotDir(dir string) Option {
	return func(s *Server) { s.snapshotDir = dir }
}

// WithLiveFsync sets the WAL fsync policy for durable live maintainers
// (default disc.FsyncAlways: every acknowledged mutation survives any
// crash).
func WithLiveFsync(p disc.FsyncPolicy) Option {
	return func(s *Server) { s.liveFsync = p }
}

// WithLiveFsyncInterval sets the batching interval used when the fsync
// policy is disc.FsyncInterval.
func WithLiveFsyncInterval(d time.Duration) Option {
	return func(s *Server) { s.liveFsyncInterval = d }
}

// WithDataDir makes live maintainers durable: each owns a home
// directory holding a <dir>/<name>/current.discsnap checkpoint and a
// <dir>/<name>/wal.* write-ahead log, so a crashed or restarted server
// resumes them with RestoreLive. An empty dir keeps live maintainers
// memory-only.
func WithDataDir(dir string) Option {
	return func(s *Server) { s.dataDir = dir }
}

// WithStorageFS routes every durable-state file operation through fsys
// — the chaos suite injects a fault-scheduling filesystem here. Nil
// (the default) means the real filesystem.
func WithStorageFS(fsys vfs.FS) Option {
	return func(s *Server) { s.storageFS = fsys }
}

// WithRecoveryBackoff tunes per-dataset recovery: the retry delay
// starts at base and doubles up to cap (with jitter), and after
// maxAttempts consecutive failures the dataset parks — serving
// read-only from its last good snapshot when one exists — while
// retries continue at the cap. Zeroes keep the defaults (50ms / 5s / 5).
func WithRecoveryBackoff(base, cap time.Duration, maxAttempts int) Option {
	return func(s *Server) {
		s.backoffBase = base
		s.backoffCap = cap
		s.maxAttempts = maxAttempts
	}
}

// WithMaxInflight bounds concurrently-served requests; excess requests
// receive 503 with a Retry-After header instead of queueing. Zero or
// negative disables shedding.
func WithMaxInflight(n int) Option {
	return func(s *Server) { s.maxInflight = n }
}

// WithRequestTimeout bounds each request's wall-clock time; requests
// over the deadline receive 503 and their context is cancelled. Zero
// disables.
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Server) { s.requestTimeout = d }
}

// WithMaxBodyBytes caps request bodies on mutating endpoints via
// http.MaxBytesReader. Zero disables.
func WithMaxBodyBytes(n int64) Option {
	return func(s *Server) { s.maxBodyBytes = n }
}

// WithLogger sets the structured logger for panic reports and
// debug-level access logs. Defaults to slog.Default().
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.log = l }
}

// SetReady flips the readiness state reported by GET /readyz. A server
// is ready from birth; discserve clears the flag before boot-time WAL
// recovery (RestoreLive) and restores it once recovery converges, so a
// load balancer never routes traffic to a half-replayed server. While
// not ready, API requests are refused with 503 (see gateReady).
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// logger returns the configured logger, falling back to slog.Default.
func (s *Server) logger() *slog.Logger {
	if s.log != nil {
		return s.log
	}
	return slog.Default()
}

type datasetState struct {
	name   string
	metric string
	div    *disc.Diversifier
	labels []string
	dim    int
	size   int
}

type resultState struct {
	id      string
	dataset *datasetState
	res     *disc.Result
}

// New creates an empty server.
func New(opts ...Option) *Server {
	s := &Server{
		liveFsync: disc.FsyncAlways,
		datasets:  make(map[string]*datasetState),
		results:   make(map[string]*resultState),
	}
	s.ready.Store(true)
	for _, opt := range opts {
		opt(s)
	}
	s.mgr = manager.New(manager.Config{
		Dir:           s.dataDir,
		Fsync:         s.liveFsync,
		FsyncInterval: s.liveFsyncInterval,
		FS:            s.storageFS,
		Logger:        s.log,
		BackoffBase:   s.backoffBase,
		BackoffCap:    s.backoffCap,
		MaxAttempts:   s.maxAttempts,
	})
	return s
}

// Handler returns the routing handler: the API mux behind the
// hardening chain (panic recovery, readiness gate, bounded admission,
// body limits, per-request timeouts — see middleware.go), every route
// wrapped with its per-route request metrics (see metrics.go), and
// /healthz, /readyz and /metrics routed around the chain so probes and
// scrapes answer even at capacity or mid-recovery.
func (s *Server) Handler() http.Handler {
	api := http.NewServeMux()
	route := func(method, pattern string, h http.HandlerFunc) {
		api.Handle(method+" "+pattern, s.instrument(method, pattern, h))
	}
	route("POST", "/v1/datasets", s.handleCreateDataset)
	route("GET", "/v1/datasets", s.handleListDatasets)
	route("GET", "/v1/datasets/{name}", s.handleGetDataset)
	route("POST", "/v1/datasets/{name}/select", s.handleSelect)
	route("POST", "/v1/datasets/{name}/snapshot", s.handleSaveSnapshot)
	route("GET", "/v1/results/{id}", s.handleGetResult)
	route("POST", "/v1/results/{id}/zoom", s.handleZoom)
	route("POST", "/v1/results/{id}/localzoom", s.handleLocalZoom)
	route("POST", "/v1/live", s.handleCreateLive)
	route("GET", "/v1/live", s.handleListLive)
	route("GET", "/v1/live/{name}", s.handleGetLive)
	route("POST", "/v1/live/{name}/insert", s.handleLiveInsert)
	route("POST", "/v1/live/{name}/delete", s.handleLiveDelete)
	route("POST", "/v1/live/{name}/flush", s.handleLiveFlush)
	route("POST", "/v1/live/{name}/snapshot", s.handleLiveCheckpoint)
	route("GET", "/v1/live/{name}/selection", s.handleLiveSelection)
	route("POST", "/v1/live/{name}/unquarantine", s.handleLiveUnquarantine)

	root := http.NewServeMux()
	root.HandleFunc("GET /healthz", s.handleHealthz)
	root.HandleFunc("GET /readyz", s.handleReadyz)
	root.HandleFunc("GET /metrics", s.handleMetrics)
	root.Handle("/", s.chain(api))
	return root
}

// Close stops every dataset supervisor and releases every durable live
// maintainer's write-ahead log, syncing acknowledged mutations to
// disk. The server keeps answering reads afterwards, but durable
// mutations fail; call it once the listener has drained.
func (s *Server) Close() error {
	return s.mgr.Close()
}

// LoadSnapshot registers a dataset warm-started from a .discsnap stream
// (see disc.LoadDiversifier): the dataset and any persisted index
// artifacts are rehydrated, so the first selection at the snapshot's
// radius skips the index build entirely. The name must not collide with
// an existing dataset. Labels are not part of the snapshot format, so a
// warm-started dataset serves results without them.
func (s *Server) LoadSnapshot(name string, r io.Reader) error {
	if err := validateDatasetName(name); err != nil {
		return fmt.Errorf("server: %v", err)
	}
	div, err := disc.LoadDiversifier(r)
	if err != nil {
		return err
	}
	s.mux.Lock()
	defer s.mux.Unlock()
	if _, exists := s.datasets[name]; exists {
		return fmt.Errorf("server: dataset %q already exists", name)
	}
	s.datasets[name] = &datasetState{
		name:   name,
		metric: div.Metric().Name(),
		div:    div,
		dim:    div.Point(0).Dim(),
		size:   div.Len(),
	}
	return nil
}

// handleHealthz is the liveness probe. Deliberately lock-free: the
// select/zoom handlers hold the server mutex for their full duration
// (seconds on large datasets), and a probe that queued behind them
// would time out exactly when the server is busy — the opposite of
// what an orchestrator should see.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyzBody is the /readyz payload. Datasets appears once live
// maintainers exist: each one's lifecycle state, so an orchestrator
// (or an operator with curl) sees a quarantined or still-recovering
// dataset without touching its routes.
type readyzBody struct {
	Status   string                           `json:"status"`
	Datasets map[string]manager.DatasetStatus `json:"datasets,omitempty"`
}

// handleReadyz is the readiness probe: 200 once the server may receive
// traffic, 503 while boot-time WAL recovery is still replaying (see
// SetReady). It never takes the server's select lock, for the same
// reason as handleHealthz (the per-dataset status reads take only the
// manager's brief registry locks).
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	body := readyzBody{Status: "ready"}
	if states := s.mgr.States(); len(states) > 0 {
		body.Datasets = states
	}
	if s.ready.Load() {
		writeJSON(w, http.StatusOK, body)
		return
	}
	body.Status = "recovering"
	writeJSON(w, http.StatusServiceUnavailable, body)
}

// decodeJSON decodes a request body, rejecting fields the request type
// does not declare — a misspelt key such as {"r": 0.1} would otherwise
// decode to a zero radius and silently select everything. Bodies
// rejected by the size cap are counted (the 400 mapping in each
// handler's error path is unchanged — the counter is how operators see
// a client hitting the limit).
func (s *Server) decodeJSON(r *http.Request, dst any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		metBodyCap.Inc()
	}
	return err
}

type snapshotBody struct {
	Dataset string `json:"dataset"`
	Path    string `json:"path"`
	Bytes   int64  `json:"bytes"`
}

// handleSaveSnapshot persists a dataset (and whatever per-radius index
// artifacts its diversifier currently holds) to
// <snapshotDir>/<name>.discsnap via the shared crash-atomic save
// (write a temp file, fsync, rename, fsync the directory), so a
// concurrent warm start never observes a torn snapshot and a power
// loss right after the response cannot lose it.
func (s *Server) handleSaveSnapshot(w http.ResponseWriter, r *http.Request) {
	name, ok := s.pathName(w, r)
	if !ok {
		return
	}
	s.mux.Lock()
	defer s.mux.Unlock()
	if s.snapshotDir == "" {
		writeError(w, http.StatusBadRequest, "snapshot directory not configured (start discserve with -snapshot)")
		return
	}
	ds, ok := s.datasets[name]
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataset %q", name)
		return
	}
	path := filepath.Join(s.snapshotDir, ds.name+".discsnap")
	var size int64
	err := snap.WriteFileAtomicFS(s.storageFS, path, func(w io.Writer) error {
		cw := &countingWriter{w: w}
		if err := ds.div.WriteSnapshot(cw); err != nil {
			return err
		}
		size = cw.n
		return nil
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, snapshotBody{Dataset: ds.name, Path: path, Bytes: size})
}

// countingWriter counts the bytes passed through to w.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// validateDatasetName rejects empty names and anything that is not a
// plain path component: dataset names become snapshot file names
// (<dir>/<name>.discsnap), so separators or dot-names must never reach
// filepath.Join where they could escape the snapshot directory. It is
// the manager's validator — one rule for every route and boot scan.
func validateDatasetName(name string) error {
	return manager.ValidateName(name)
}

// pathName extracts and validates the {name} path value. An invalid
// name (separators, dot-names — anything validateDatasetName rejects)
// can never name a dataset, so it is refused with 400 before reaching
// any map lookup or filepath.Join.
func (s *Server) pathName(w http.ResponseWriter, r *http.Request) (string, bool) {
	name := r.PathValue("name")
	if err := validateDatasetName(name); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return "", false
	}
	return name, true
}

type createDatasetRequest struct {
	Name   string      `json:"name"`
	Metric string      `json:"metric"`
	Points [][]float64 `json:"points"`
	Labels []string    `json:"labels,omitempty"`
	// Precision selects the coordinate storage width: "float64" (the
	// default) or "float32", which rounds at ingest and enables the
	// batched float32 pre-filter for high-dimensional data.
	Precision string `json:"precision,omitempty"`
}

type datasetInfo struct {
	Name   string `json:"name"`
	Metric string `json:"metric"`
	Size   int    `json:"size"`
	Dim    int    `json:"dim"`
}

func (s *Server) handleCreateDataset(w http.ResponseWriter, r *http.Request) {
	var req createDatasetRequest
	if err := s.decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if err := validateDatasetName(req.Name); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Points) == 0 {
		writeError(w, http.StatusBadRequest, "points required")
		return
	}
	if req.Labels != nil && len(req.Labels) != len(req.Points) {
		writeError(w, http.StatusBadRequest, "%d labels for %d points", len(req.Labels), len(req.Points))
		return
	}
	metricName := req.Metric
	if metricName == "" {
		metricName = "euclidean"
	}
	metric, err := disc.MetricByName(metricName)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The coverage graph answers selects and zooms with adjacency reads.
	opts := []disc.Option{disc.WithMetric(metric), disc.WithIndex(disc.IndexCoverageGraph)}
	switch req.Precision {
	case "", "float64":
	case "float32":
		opts = append(opts, disc.WithPrecision(disc.PrecisionFloat32))
	default:
		writeError(w, http.StatusBadRequest, "unknown precision %q (supported: float64, float32)", req.Precision)
		return
	}
	pts := make([]disc.Point, len(req.Points))
	for i, p := range req.Points {
		pts[i] = disc.Point(p)
	}
	div, err := disc.New(pts, opts...)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.mux.Lock()
	defer s.mux.Unlock()
	if _, exists := s.datasets[req.Name]; exists {
		writeError(w, http.StatusConflict, "dataset %q already exists", req.Name)
		return
	}
	ds := &datasetState{
		name:   req.Name,
		metric: metricName,
		div:    div,
		labels: req.Labels,
		dim:    len(pts[0]),
		size:   len(pts),
	}
	s.datasets[req.Name] = ds
	writeJSON(w, http.StatusCreated, datasetInfo{Name: ds.name, Metric: ds.metric, Size: ds.size, Dim: ds.dim})
}

func (s *Server) handleListDatasets(w http.ResponseWriter, _ *http.Request) {
	s.mux.Lock()
	defer s.mux.Unlock()
	infos := make([]datasetInfo, 0, len(s.datasets))
	for _, ds := range s.datasets {
		infos = append(infos, datasetInfo{Name: ds.name, Metric: ds.metric, Size: ds.size, Dim: ds.dim})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	name, ok := s.pathName(w, r)
	if !ok {
		return
	}
	s.mux.Lock()
	defer s.mux.Unlock()
	ds, ok := s.datasets[name]
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataset %q", name)
		return
	}
	writeJSON(w, http.StatusOK, datasetInfo{Name: ds.name, Metric: ds.metric, Size: ds.size, Dim: ds.dim})
}

type selectRequest struct {
	Radius    float64 `json:"radius"`
	Algorithm string  `json:"algorithm,omitempty"`
}

type resultBody struct {
	ID        string   `json:"id"`
	Dataset   string   `json:"dataset"`
	Radius    float64  `json:"radius"`
	Algorithm string   `json:"algorithm"`
	Size      int      `json:"size"`
	IDs       []int    `json:"ids"`
	Labels    []string `json:"labels,omitempty"`
	// Accesses counts adjacency entries examined (M-tree nodes on dense radii).
	Accesses int64 `json:"accesses"`
}

func algorithmByName(name string) (disc.Algorithm, error) {
	switch name {
	case "", "greedy":
		return disc.AlgorithmGreedy, nil
	case "basic":
		return disc.AlgorithmBasic, nil
	case "white-greedy":
		return disc.AlgorithmGreedyWhite, nil
	case "lazy-grey":
		return disc.AlgorithmLazyGrey, nil
	case "lazy-white":
		return disc.AlgorithmLazyWhite, nil
	case "coverage":
		return disc.AlgorithmCoverage, nil
	case "fast-coverage":
		return disc.AlgorithmFastCoverage, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q", name)
	}
}

// componentSelectable reports whether alg is a Greedy-DisC variant, the
// algorithms disc.SelectComponents serves. Component mode returns the
// same subset as the global pass, with exact representative distances,
// so later zoom-outs skip their recompute. Basic-DisC and the
// coverage-only algorithms stay on the global path.
func componentSelectable(alg disc.Algorithm) bool {
	switch alg {
	case disc.AlgorithmGreedy, disc.AlgorithmGreedyWhite, disc.AlgorithmLazyGrey, disc.AlgorithmLazyWhite:
		return true
	}
	return false
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	var req selectRequest
	if err := s.decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	alg, err := algorithmByName(req.Algorithm)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	name, ok := s.pathName(w, r)
	if !ok {
		return
	}

	s.mux.Lock()
	defer s.mux.Unlock()
	ds, ok := s.datasets[name]
	if !ok {
		writeError(w, http.StatusNotFound, "unknown dataset %q", name)
		return
	}
	sopts := []disc.SelectOption{disc.WithAlgorithm(alg)}
	if componentSelectable(alg) {
		sopts = append(sopts, disc.WithSelectMode(disc.SelectComponents))
	}
	res, err := ds.div.Select(req.Radius, sopts...)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	rs := s.storeResultLocked(ds, res)
	writeJSON(w, http.StatusCreated, s.resultBodyLocked(rs))
}

// storeResultLocked registers a result and assigns it an id. Caller holds
// the lock.
func (s *Server) storeResultLocked(ds *datasetState, res *disc.Result) *resultState {
	s.nextID++
	rs := &resultState{id: "r" + strconv.Itoa(s.nextID), dataset: ds, res: res}
	s.results[rs.id] = rs
	return rs
}

func (s *Server) resultBodyLocked(rs *resultState) resultBody {
	ids := rs.res.SortedIDs()
	body := resultBody{
		ID:        rs.id,
		Dataset:   rs.dataset.name,
		Radius:    rs.res.Radius(),
		Algorithm: rs.res.Algorithm(),
		Size:      rs.res.Size(),
		IDs:       ids,
		Accesses:  rs.res.Accesses(),
	}
	if rs.dataset.labels != nil {
		body.Labels = make([]string, len(ids))
		for i, id := range ids {
			body.Labels[i] = rs.dataset.labels[id]
		}
	}
	return body
}

func (s *Server) handleGetResult(w http.ResponseWriter, r *http.Request) {
	s.mux.Lock()
	defer s.mux.Unlock()
	rs, ok := s.results[r.PathValue("id")]
	if !ok {
		writeError(w, http.StatusNotFound, "unknown result %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.resultBodyLocked(rs))
}

type zoomRequest struct {
	Radius float64 `json:"radius"`
}

func (s *Server) handleZoom(w http.ResponseWriter, r *http.Request) {
	var req zoomRequest
	if err := s.decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	s.mux.Lock()
	defer s.mux.Unlock()
	rs, ok := s.results[r.PathValue("id")]
	if !ok {
		writeError(w, http.StatusNotFound, "unknown result %q", r.PathValue("id"))
		return
	}
	var zoomed *disc.Result
	var err error
	switch {
	case req.Radius < rs.res.Radius():
		zoomed, err = rs.dataset.div.ZoomIn(rs.res, req.Radius)
	case req.Radius > rs.res.Radius():
		zoomed, err = rs.dataset.div.ZoomOut(rs.res, req.Radius, disc.ZoomOutGreedyLargest)
	default:
		writeError(w, http.StatusBadRequest, "radius %g equals the current radius", req.Radius)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	nrs := s.storeResultLocked(rs.dataset, zoomed)
	writeJSON(w, http.StatusCreated, s.resultBodyLocked(nrs))
}

type localZoomRequest struct {
	Center int     `json:"center"`
	Radius float64 `json:"radius"`
}

type localZoomBody struct {
	Center          int      `json:"center"`
	LocalRadius     float64  `json:"localRadius"`
	RegionSize      int      `json:"regionSize"`
	Added           []int    `json:"added"`
	Removed         []int    `json:"removed"`
	Representatives []int    `json:"representatives"`
	Labels          []string `json:"labels,omitempty"`
}

func (s *Server) handleLocalZoom(w http.ResponseWriter, r *http.Request) {
	var req localZoomRequest
	if err := s.decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	s.mux.Lock()
	defer s.mux.Unlock()
	rs, ok := s.results[r.PathValue("id")]
	if !ok {
		writeError(w, http.StatusNotFound, "unknown result %q", r.PathValue("id"))
		return
	}
	var lz *disc.LocalZoom
	var err error
	switch {
	case req.Radius < rs.res.Radius():
		lz, err = rs.dataset.div.LocalZoomIn(rs.res, req.Center, req.Radius)
	case req.Radius > rs.res.Radius():
		lz, err = rs.dataset.div.LocalZoomOut(rs.res, req.Center, req.Radius)
	default:
		writeError(w, http.StatusBadRequest, "radius %g equals the current radius", req.Radius)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body := localZoomBody{
		Center:          lz.Center,
		LocalRadius:     lz.LocalRadius,
		RegionSize:      len(lz.Region),
		Added:           lz.Added,
		Removed:         lz.Removed,
		Representatives: lz.Representatives,
	}
	if rs.dataset.labels != nil {
		body.Labels = make([]string, len(lz.Representatives))
		for i, id := range lz.Representatives {
			body.Labels[i] = rs.dataset.labels[id]
		}
	}
	writeJSON(w, http.StatusOK, body)
}

type createLiveRequest struct {
	Name   string      `json:"name"`
	Metric string      `json:"metric,omitempty"`
	Radius float64     `json:"radius"`
	Points [][]float64 `json:"points,omitempty"`
}

type liveInfo struct {
	Name     string  `json:"name"`
	Metric   string  `json:"metric"`
	Radius   float64 `json:"radius"`
	Dim      int     `json:"dim"`
	Live     int     `json:"live"`
	Selected int     `json:"selected"`
	Pending  int     `json:"pending"`
	State    string  `json:"state"`
	Reason   string  `json:"reason,omitempty"`
}

func liveInfoFrom(in manager.Info) liveInfo {
	return liveInfo{
		Name:     in.Name,
		Metric:   in.Metric,
		Radius:   in.Radius,
		Dim:      in.Dim,
		Live:     in.Live,
		Selected: in.Selected,
		Pending:  in.Pending,
		State:    string(in.State),
		Reason:   in.Reason,
	}
}

// writeUnavailable maps a manager.UnavailableError — the dataset is
// loading, degraded (for a mutation), or quarantined — to 503 with a
// Retry-After hint and the machine-readable state. Returns false when
// err is some other kind, leaving the response to the caller.
func writeUnavailable(w http.ResponseWriter, err error) bool {
	var ue *manager.UnavailableError
	if !errors.As(err, &ue) {
		return false
	}
	secs := int(ue.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusServiceUnavailable, struct {
		Error  string `json:"error"`
		State  string `json:"state"`
		Reason string `json:"reason,omitempty"`
	}{Error: ue.Error(), State: string(ue.State), Reason: ue.Reason})
	return true
}

// writeStorageFault answers a mutation whose failure was classified as
// a storage fault: the client did nothing wrong, recovery has been
// kicked, retry after it converges.
func writeStorageFault(w http.ResponseWriter, name string, err error) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, "dataset %q hit a storage fault; recovery started: %v", name, err)
}

// handleCreateLive builds an incremental maintainer, optionally seeded
// with points (a non-empty seed runs the batch pipeline once, so the
// first published selection is exactly the batch selection). The
// maintainer is owned by the dataset manager from birth.
func (s *Server) handleCreateLive(w http.ResponseWriter, r *http.Request) {
	var req createLiveRequest
	if err := s.decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if err := validateDatasetName(req.Name); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	metricName := req.Metric
	if metricName == "" {
		metricName = "euclidean"
	}
	pts := make([]disc.Point, len(req.Points))
	for i, p := range req.Points {
		pts[i] = disc.Point(p)
	}
	d, err := s.mgr.Create(req.Name, metricName, req.Radius, pts)
	if err != nil {
		if errors.Is(err, manager.ErrExists) {
			writeError(w, http.StatusConflict, "%v", err)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, liveInfoFrom(d.Info()))
}

// RestoreLive recovers every dataset a previous process left in the
// storage directory, each under its own supervisor: a dataset that
// needs backoff retries — or that is corrupt and gets quarantined —
// neither delays nor fails the others. It blocks until every dataset
// settles and returns how many are serving (ready or degraded). Call
// once at boot, before serving.
func (s *Server) RestoreLive() (int, error) {
	return s.mgr.Recover()
}

// handleLiveCheckpoint compacts a durable maintainer into its
// .discsnap file and rotates the write-ahead log to a fresh epoch,
// bounding recovery time. 400 on memory-only maintainers. A failed
// snapshot write (ENOSPC) leaves the old snapshot + log pair
// authoritative and the dataset fully serviceable; only a failed log
// rotation needs recovery, and that is kicked automatically.
func (s *Server) handleLiveCheckpoint(w http.ResponseWriter, r *http.Request) {
	d := s.lookupDataset(w, r)
	if d == nil {
		return
	}
	u, err := d.Updater()
	if err != nil {
		if !writeUnavailable(w, err) {
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	if !u.Durable() {
		writeError(w, http.StatusBadRequest, "live maintainer %q is memory-only (start the server with a data directory)", d.Name())
		return
	}
	snapPath := d.CheckpointPath()
	if err := u.Checkpoint(snapPath); err != nil {
		if d.ReportFault(err) {
			writeStorageFault(w, d.Name(), err)
			return
		}
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, snapshotBody{Dataset: d.Name(), Path: snapPath})
}

// handleLiveUnquarantine lifts a quarantine after an operator has
// repaired or replaced the damaged files (see docs/OPERATIONS.md): the
// sidecar is removed and the dataset re-enters supervised recovery.
// The response reports where the dataset settled — ready, degraded, or
// quarantined again if the state is still bad.
func (s *Server) handleLiveUnquarantine(w http.ResponseWriter, r *http.Request) {
	name, ok := s.pathName(w, r)
	if !ok {
		return
	}
	if err := s.mgr.Unquarantine(name); err != nil {
		switch {
		case errors.Is(err, manager.ErrNotFound):
			writeError(w, http.StatusNotFound, "unknown live maintainer %q", name)
		default:
			writeError(w, http.StatusConflict, "%v", err)
		}
		return
	}
	d, err := s.mgr.Get(name)
	if err != nil {
		writeError(w, http.StatusNotFound, "unknown live maintainer %q", name)
		return
	}
	writeJSON(w, http.StatusOK, liveInfoFrom(d.Info()))
}

func (s *Server) handleListLive(w http.ResponseWriter, _ *http.Request) {
	ds := s.mgr.List()
	infos := make([]liveInfo, 0, len(ds))
	for _, d := range ds {
		infos = append(infos, liveInfoFrom(d.Info()))
	}
	writeJSON(w, http.StatusOK, infos)
}

// lookupDataset resolves the {name} path value against the dataset
// manager, writing the 400/404 itself. The returned dataset may be in
// any lifecycle state — each handler gates on what it needs (Updater
// for mutations, View for reads).
func (s *Server) lookupDataset(w http.ResponseWriter, r *http.Request) *manager.Dataset {
	name, ok := s.pathName(w, r)
	if !ok {
		return nil
	}
	d, err := s.mgr.Get(name)
	if err != nil {
		writeError(w, http.StatusNotFound, "unknown live maintainer %q", name)
		return nil
	}
	return d
}

// handleGetLive reports the maintainer's info in every lifecycle state
// — it is the "what is wrong with my dataset" endpoint, so loading and
// quarantined datasets answer 200 with their state and reason rather
// than 503.
func (s *Server) handleGetLive(w http.ResponseWriter, r *http.Request) {
	d := s.lookupDataset(w, r)
	if d == nil {
		return
	}
	writeJSON(w, http.StatusOK, liveInfoFrom(d.Info()))
}

type liveInsertRequest struct {
	Point []float64 `json:"point"`
	Flush bool      `json:"flush,omitempty"`
}

type liveMutationBody struct {
	ID       int  `json:"id"`
	Selected bool `json:"selected"`
	Live     int  `json:"live"`
	Size     int  `json:"size"`
	Pending  int  `json:"pending"`
}

// handleLiveInsert adds a point. By default the mutation is
// bounded-stale — the published selection is unchanged and Pending
// reports the dirty components; with "flush": true the operation
// converges before responding and Selected reports whether the new
// point became a representative.
func (s *Server) handleLiveInsert(w http.ResponseWriter, r *http.Request) {
	var req liveInsertRequest
	if err := s.decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	d := s.lookupDataset(w, r)
	if d == nil {
		return
	}
	u, err := d.Updater()
	if err != nil {
		if !writeUnavailable(w, err) {
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	// Dimensionality is validated by the updater itself, which
	// serialises mutations — no server-side cache to race on.
	id, err := u.Insert(disc.Point(req.Point))
	if err != nil {
		if d.ReportFault(err) {
			writeStorageFault(w, d.Name(), err)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Flush {
		u.Flush()
	}
	writeJSON(w, http.StatusCreated, liveMutationBody{
		ID:       id,
		Selected: u.IsRepresentative(id),
		Live:     u.Len(),
		Size:     u.Size(),
		Pending:  u.Pending(),
	})
}

type liveDeleteRequest struct {
	ID    int  `json:"id"`
	Flush bool `json:"flush,omitempty"`
}

// handleLiveDelete retracts a live object; same staleness contract as
// insert.
func (s *Server) handleLiveDelete(w http.ResponseWriter, r *http.Request) {
	var req liveDeleteRequest
	if err := s.decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	d := s.lookupDataset(w, r)
	if d == nil {
		return
	}
	u, err := d.Updater()
	if err != nil {
		if !writeUnavailable(w, err) {
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	if err := u.Delete(req.ID); err != nil {
		if d.ReportFault(err) {
			writeStorageFault(w, d.Name(), err)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Flush {
		u.Flush()
	}
	writeJSON(w, http.StatusOK, liveMutationBody{
		ID:      req.ID,
		Live:    u.Len(),
		Size:    u.Size(),
		Pending: u.Pending(),
	})
}

type liveFlushBody struct {
	Repaired int `json:"repaired"`
	Size     int `json:"size"`
	Pending  int `json:"pending"`
}

func (s *Server) handleLiveFlush(w http.ResponseWriter, r *http.Request) {
	d := s.lookupDataset(w, r)
	if d == nil {
		return
	}
	u, err := d.Updater()
	if err != nil {
		if !writeUnavailable(w, err) {
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	repaired := u.Flush()
	writeJSON(w, http.StatusOK, liveFlushBody{
		Repaired: repaired,
		Size:     u.Size(),
		Pending:  u.Pending(),
	})
}

type liveSelectionBody struct {
	Size    int    `json:"size"`
	Pending int    `json:"pending"`
	IDs     []int  `json:"ids"`
	State   string `json:"state,omitempty"`
}

// handleLiveSelection serves the last published selection — lock-free
// on the updater, so it stays responsive while repairs run. A degraded
// dataset serves the selection computed from its last good snapshot
// (read-only, marked by the state field); loading and quarantined
// datasets answer 503.
func (s *Server) handleLiveSelection(w http.ResponseWriter, r *http.Request) {
	d := s.lookupDataset(w, r)
	if d == nil {
		return
	}
	v, err := d.View()
	if err != nil {
		if !writeUnavailable(w, err) {
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	if v.Upd != nil {
		ids := v.Upd.Selection()
		writeJSON(w, http.StatusOK, liveSelectionBody{
			Size:    len(ids),
			Pending: v.Upd.Pending(),
			IDs:     append([]int(nil), ids...),
			State:   string(v.State),
		})
		return
	}
	writeJSON(w, http.StatusOK, liveSelectionBody{
		Size:  len(v.Deg.Selection),
		IDs:   append([]int(nil), v.Deg.Selection...),
		State: string(v.State),
	})
}
