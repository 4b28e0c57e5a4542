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
//	POST /v1/datasets/{name}/snapshot    save the dataset (and any
//	                                      prepared index artifacts) to
//	                                      <dir>/<name>/static.discsnap
//	                                      (see WithDataDir)
//	GET  /v1/results/{id}                 re-fetch a result
//	POST /v1/results/{id}/zoom           {radius} -> adapted result
//	POST /v1/results/{id}/localzoom      {center, radius} -> local view
//	GET  /healthz                         liveness probe
//
// A result id is a derivation key, not a serial number: it encodes the
// dataset, a fingerprint of its content, the algorithm, the select
// radius, each zoom radius so far (at most maxZoomSteps) and a checksum
// of the ids the select chose, so identical selects and zooms answer
// the same id. Results live in one bounded LRU (resultCacheIDs);
// fetching or zooming an id that is not resident recomputes it, select
// then each zoom, from the id alone, and concurrent misses on one id
// share that recompute. Ids therefore survive a restart on the same
// data directory, and answer 404 once the dataset is gone, its content
// differs, or the recomputed select picks other ids. Every algorithm
// but basic picks the same ids whatever the dataset ran before; a basic
// select follows the coverage graph's scan order, which earlier selects
// choose, so a basic id can answer 404 after eviction or a restart (see
// results.go). Select and zoom always run their algorithm, so their
// "accesses" is this request's cost; a GET reports the accesses of the
// run that produced the resident copy.
//
// Uploaded datasets run on disc.IndexCoverageGraph, where the
// Greedy-DisC algorithms run one greedy over the graph's rows; their
// selections and zooms are the ids the library's default M-tree gives.
// Each dataset keeps one coverage graph, joined at the largest select
// radius so far; selects and zoom-ins at smaller radii read its rows as
// prefixes without joining, and zoom-outs above it scan the substrate.
// A radius whose graph would pass core.AdjacencyBudget is served by the
// M-tree (or a flat scan), whose memory does not grow with the edge
// count, so the client's radius cannot size the server's heap. A
// dataset recovered from its static.discsnap keeps the index its file
// records.
//
// Live maintainers (incremental r-DisC under inserts/deletes, backed by
// disc.Updater, under any built-in metric):
//
//	POST /v1/live                         create {name, radius, metric?, points?}
//	GET  /v1/live                         list live maintainers
//	GET  /v1/live/{name}                  maintainer info (live, selected, pending, state)
//	POST /v1/live/{name}/insert          {point, flush?} -> assigned id
//	POST /v1/live/{name}/delete          {id, flush?} -> updated counts
//	POST /v1/live/{name}/flush           repair pending writes, publish
//	POST /v1/live/{name}/snapshot        checkpoint into <dir>/<name>/current.discsnap
//	GET  /v1/live/{name}/selection       last published representative ids
//	POST /v1/live/{name}/unquarantine    lift a quarantine after repair
//
// Mutations are bounded-stale by default: reads keep serving the last
// published selection until a flush converges the pending writes.
// Pass "flush": true on a mutation for per-operation convergence.
//
// Every dataset, static or live, is owned by the dataset manager
// (internal/manager; see docs/OPERATIONS.md). The two kinds share one
// namespace: a create under a taken name answers 409, and each route
// family answers 404 for a dataset of the other kind. A static
// dataset's Diversifier is safe for concurrent use, so its selects and
// zooms run in parallel, and datasets never wait on each other. With
// WithDataDir every
// dataset is durable in its own home directory (<dir>/<name>/: a
// live one's current.discsnap and wal.*, a static one's
// static.discsnap once saved, and a QUARANTINE sidecar), and
// RestoreLive recovers every home after a restart under a supervised
// lifecycle: a dataset whose disk fails recovers — or quarantines —
// independently, answering 503 with a Retry-After hint and the reason
// while every other dataset keeps serving.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	disc "github.com/discdiversity/disc"
	"github.com/discdiversity/disc/internal/manager"
	"github.com/discdiversity/disc/internal/vfs"
)

// Server is the HTTP handler. Create with New; it is safe for concurrent
// use.
type Server struct {
	// cfg configures the dataset manager New builds; the storage and
	// logging options write straight into it.
	cfg manager.Config

	// Request-hardening configuration (see middleware.go).
	maxInflight    int
	requestTimeout time.Duration
	maxBodyBytes   int64

	// Readiness flag (SetReady; true from birth so embedded servers
	// need no opt-in) and the per-request id sequence.
	ready  atomic.Bool
	reqSeq atomic.Uint64

	// results caches results by id (see results.go).
	results *resultCache

	// mgr is the one dataset registry: it owns every dataset's
	// lifecycle — supervised recovery, corruption quarantine,
	// degraded-mode reads.
	mgr *manager.Manager
}

// Option configures New.
type Option func(*Server)

// WithLiveFsync sets the WAL fsync policy for durable live maintainers
// (default disc.FsyncAlways: every acknowledged mutation survives any
// crash).
func WithLiveFsync(p disc.FsyncPolicy) Option {
	return func(s *Server) { s.cfg.Fsync = p }
}

// WithLiveFsyncInterval sets the batching interval used when the fsync
// policy is disc.FsyncInterval.
func WithLiveFsyncInterval(d time.Duration) Option {
	return func(s *Server) { s.cfg.FsyncInterval = d }
}

// WithDataDir makes datasets durable, each in a home directory
// <dir>/<name>/: a live maintainer keeps a current.discsnap checkpoint
// and a wal.* write-ahead log there, and a static dataset's snapshot
// route writes static.discsnap there. RestoreLive resumes every home
// after a crash or restart. An empty dir keeps datasets memory-only,
// and both snapshot routes answer 400.
func WithDataDir(dir string) Option {
	return func(s *Server) { s.cfg.Dir = dir }
}

// WithStorageFS routes every durable-state file operation through fsys
// — the chaos suite injects a fault-scheduling filesystem here. Nil
// (the default) means the real filesystem.
func WithStorageFS(fsys vfs.FS) Option {
	return func(s *Server) { s.cfg.FS = fsys }
}

// WithRecoveryBackoff tunes per-dataset recovery: the retry delay
// starts at base and doubles up to cap (with jitter), and after
// maxAttempts consecutive failures the dataset parks — serving
// read-only from its last good snapshot when one exists — while
// retries continue at the cap. Zeroes keep the defaults (50ms / 5s / 5).
func WithRecoveryBackoff(base, cap time.Duration, maxAttempts int) Option {
	return func(s *Server) {
		s.cfg.BackoffBase = base
		s.cfg.BackoffCap = cap
		s.cfg.MaxAttempts = maxAttempts
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

// WithLogger sets the structured logger for panic reports, debug-level
// access logs and the dataset manager's recovery reports. Defaults to
// slog.Default().
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.cfg.Logger = l }
}

// SetReady flips the readiness state reported by GET /readyz. A server
// is ready from birth; discserve clears the flag before boot-time
// recovery (RestoreLive) and restores it once recovery converges, so a
// load balancer never routes traffic to a half-recovered server. While
// not ready, API requests are refused with 503 (see gateReady).
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// logger returns the configured logger, falling back to slog.Default.
func (s *Server) logger() *slog.Logger {
	if s.cfg.Logger != nil {
		return s.cfg.Logger
	}
	return slog.Default()
}

// New creates an empty server.
func New(opts ...Option) *Server {
	s := &Server{
		cfg:     manager.Config{Fsync: disc.FsyncAlways},
		results: newResultCache(resultCacheIDs),
	}
	s.ready.Store(true)
	for _, opt := range opts {
		opt(s)
	}
	s.mgr = manager.New(s.cfg)
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
	route("POST", "/v1/datasets/{name}/snapshot", s.handleSave(true))
	route("GET", "/v1/results/{id}", s.handleGetResult)
	route("POST", "/v1/results/{id}/zoom", s.handleZoom)
	route("POST", "/v1/results/{id}/localzoom", s.handleLocalZoom)
	route("POST", "/v1/live", s.handleCreateLive)
	route("GET", "/v1/live", s.handleListLive)
	route("GET", "/v1/live/{name}", s.handleGetLive)
	route("POST", "/v1/live/{name}/insert", s.handleLiveInsert)
	route("POST", "/v1/live/{name}/delete", s.handleLiveDelete)
	route("POST", "/v1/live/{name}/flush", s.handleLiveFlush)
	route("POST", "/v1/live/{name}/snapshot", s.handleSave(false))
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
// disk. Dataset requests answer 503 afterwards; call it once the
// listener has drained. Cached results are dropped; their ids stay
// valid for a server restarted on the same data directory.
func (s *Server) Close() error {
	s.results.clear()
	return s.mgr.Close()
}

// handleHealthz is the liveness probe. It takes no lock, so it answers
// at once however busy the datasets are — a probe that waited would
// time out exactly when the server is busy, the opposite of what an
// orchestrator should see.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyzBody is the /readyz payload. Datasets appears once any dataset
// exists: each one's lifecycle state, so an orchestrator (or an
// operator with curl) sees a quarantined or still-recovering dataset
// without touching its routes.
type readyzBody struct {
	Status   string                           `json:"status"`
	Datasets map[string]manager.DatasetStatus `json:"datasets,omitempty"`
}

// handleReadyz is the readiness probe: 200 once the server may receive
// traffic, 503 while boot-time recovery is still running (see
// SetReady). The per-dataset status reads take only the manager's
// brief state locks, so a long select cannot delay the probe.
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

// handleSave answers both snapshot routes: it saves the static (or
// live) dataset into its home and reports the file and the bytes
// written. A static save writes static.discsnap with whatever
// per-radius index artifacts its Diversifier holds; a live one
// checkpoints and rotates the write-ahead log, bounding recovery time.
// Either write is crash-atomic (temp file, fsync, rename, directory
// fsync). 400 without a data directory. A failed write (ENOSPC)
// answers 503 and leaves the previous file authoritative and the
// dataset serviceable; only a failed log rotation needs recovery, and
// that is kicked automatically.
func (s *Server) handleSave(static bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		d := s.lookup(w, r, static)
		if d == nil {
			return
		}
		path, size, err := d.Save()
		var ue *manager.UnavailableError
		switch {
		case err == nil:
			writeJSON(w, http.StatusCreated, snapshotBody{Dataset: d.Name(), Path: path, Bytes: size})
		case errors.Is(err, manager.ErrMemoryOnly):
			writeError(w, http.StatusBadRequest, "%v (start the server with a data directory)", err)
		case errors.As(err, &ue):
			writeUnavailable(w, err)
		case d.ReportFault(err):
			writeStorageFault(w, d.Name(), err)
		default:
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
	}
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

// lookup resolves the {name} path value to a dataset of the route
// family's kind — static under /v1/datasets, live under /v1/live —
// writing the 400 or 404 itself. An invalid name (anything
// manager.ValidateName rejects) never reaches the registry. The
// dataset may be in any lifecycle state.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request, static bool) *manager.Dataset {
	name := r.PathValue("name")
	if err := manager.ValidateName(name); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	d, err := s.mgr.Get(name)
	switch {
	case err == nil && d.IsStatic() == static:
		return d
	case static:
		writeError(w, http.StatusNotFound, "unknown dataset %q", name)
	default:
		writeError(w, http.StatusNotFound, "unknown live maintainer %q", name)
	}
	return nil
}

// static resolves {name} to a ready static dataset's engine, writing
// the 400, 404 or 503 itself.
func (s *Server) static(w http.ResponseWriter, r *http.Request) (string, *manager.Static) {
	d := s.lookup(w, r, true)
	if d == nil {
		return "", nil
	}
	st, err := d.Static()
	if err != nil {
		writeUnavailable(w, err)
		return "", nil
	}
	return d.Name(), st
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
	if err := manager.ValidateName(req.Name); err != nil {
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
	div, err := disc.NewFromDataset(&disc.Dataset{Points: pts, Labels: req.Labels}, opts...)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if _, err := s.mgr.CreateStatic(req.Name, metricName, div); err != nil {
		writeCreateError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, datasetInfo{Name: req.Name, Metric: metricName, Size: len(pts), Dim: len(pts[0])})
}

func staticInfo(name string, st *manager.Static) datasetInfo {
	return datasetInfo{Name: name, Metric: st.Metric, Size: st.Size, Dim: st.Dim}
}

// handleListDatasets lists the static datasets; one that cannot serve
// (loading or quarantined; see /readyz) is listed by name alone.
func (s *Server) handleListDatasets(w http.ResponseWriter, _ *http.Request) {
	infos := []datasetInfo{}
	for _, d := range s.mgr.List() {
		if !d.IsStatic() {
			continue
		}
		info := datasetInfo{Name: d.Name()}
		if st, err := d.Static(); err == nil {
			info = staticInfo(d.Name(), st)
		}
		infos = append(infos, info)
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	name, st := s.static(w, r)
	if st == nil {
		return
	}
	writeJSON(w, http.StatusOK, staticInfo(name, st))
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

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	var req selectRequest
	if err := s.decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	alg, err := algorithmIndex(req.Algorithm)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	name, st := s.static(w, r)
	if st == nil {
		return
	}
	res, err := st.Diversifier().Select(req.Radius, disc.WithAlgorithm(algorithms[alg].alg))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ids := res.SortedIDs()
	id := resultKey{dataset: name, fingerprint: st.Fingerprint(), checksum: idsChecksum(ids), algorithm: alg, radius: req.Radius}.String()
	s.results.put(id, st, res)
	writeJSON(w, http.StatusCreated, resultBodyOf(id, name, st, res, ids))
}

// resultBodyOf renders a result served under id; ids are its sorted ids.
func resultBodyOf(id, dataset string, st *manager.Static, res *disc.Result, ids []int) resultBody {
	return resultBody{
		ID:        id,
		Dataset:   dataset,
		Radius:    res.Radius(),
		Algorithm: res.Algorithm(),
		Size:      res.Size(),
		IDs:       ids,
		Labels:    labelsOf(st, ids),
		Accesses:  res.Accesses(),
	}
}

// labelsOf returns the labels of ids, or nil for an unlabelled dataset.
func labelsOf(st *manager.Static, ids []int) []string {
	all := st.Labels()
	if all == nil {
		return nil
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = all[id]
	}
	return out
}

func (s *Server) handleGetResult(w http.ResponseWriter, r *http.Request) {
	if k, st, res := s.result(w, r); res != nil {
		writeJSON(w, http.StatusOK, resultBodyOf(r.PathValue("id"), k.dataset, st, res, res.SortedIDs()))
	}
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
	if k, ok := parseResultKey(r.PathValue("id")); ok && len(k.zooms) >= maxZoomSteps {
		writeError(w, http.StatusBadRequest, "result %q records %d zooms, the limit for one id; select again to zoom further",
			r.PathValue("id"), maxZoomSteps)
		return
	}
	k, st, res := s.result(w, r)
	if res == nil {
		return
	}
	zoomed, err := zoom(st.Diversifier(), res, req.Radius)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id := k.zoom(req.Radius).String()
	s.results.put(id, st, zoomed)
	writeJSON(w, http.StatusCreated, resultBodyOf(id, k.dataset, st, zoomed, zoomed.SortedIDs()))
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
	_, st, res := s.result(w, r)
	if res == nil {
		return
	}
	div := st.Diversifier()
	var lz *disc.LocalZoom
	var err error
	switch {
	case req.Radius < res.Radius():
		lz, err = div.LocalZoomIn(res, req.Center, req.Radius)
	case req.Radius > res.Radius():
		lz, err = div.LocalZoomOut(res, req.Center, req.Radius)
	default:
		err = fmt.Errorf("radius %g equals the current radius", req.Radius)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, localZoomBody{
		Center:          lz.Center,
		LocalRadius:     lz.LocalRadius,
		RegionSize:      len(lz.Region),
		Added:           lz.Added,
		Removed:         lz.Removed,
		Representatives: lz.Representatives,
		Labels:          labelsOf(st, lz.Representatives),
	})
}

type createLiveRequest struct {
	Name   string      `json:"name"`
	Metric string      `json:"metric,omitempty"`
	Radius float64     `json:"radius"`
	Points [][]float64 `json:"points,omitempty"`
}

// writeUnavailable answers an error from a dataset's Static, Updater
// or View. A manager.UnavailableError — the dataset is loading,
// degraded (for a mutation), or quarantined — maps to 503 with a
// Retry-After hint and the machine-readable state and reason; anything
// else to 500.
func writeUnavailable(w http.ResponseWriter, err error) {
	var ue *manager.UnavailableError
	if !errors.As(err, &ue) {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
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
}

// writeStorageFault answers a mutation whose failure was classified as
// a storage fault: the client did nothing wrong, recovery has been
// kicked, retry after it converges.
func writeStorageFault(w http.ResponseWriter, name string, err error) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, "dataset %q hit a storage fault; recovery started: %v", name, err)
}

// writeCreateError answers a refused create: 409 when the name is
// taken by a dataset of either kind, else 400.
func writeCreateError(w http.ResponseWriter, err error) {
	if errors.Is(err, manager.ErrExists) {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeError(w, http.StatusBadRequest, "%v", err)
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
		writeCreateError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, d.Info())
}

// RestoreLive recovers every dataset, static or live, a previous
// process left in the storage directory, each under its own
// supervisor: a dataset that needs backoff retries — or that is
// corrupt and gets quarantined — neither delays nor fails the others.
// It blocks until every dataset settles and returns how many are
// serving (ready or degraded). Call once at boot, before serving.
func (s *Server) RestoreLive() (int, error) {
	return s.mgr.Recover()
}

// handleLiveUnquarantine lifts a quarantine after an operator has
// repaired or replaced the damaged files (see docs/OPERATIONS.md): the
// sidecar is removed and the dataset re-enters supervised recovery.
// The response reports where the dataset settled — ready, degraded, or
// quarantined again if the state is still bad.
func (s *Server) handleLiveUnquarantine(w http.ResponseWriter, r *http.Request) {
	d := s.lookup(w, r, false)
	if d == nil {
		return
	}
	if err := s.mgr.Unquarantine(d.Name()); err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, d.Info())
}

func (s *Server) handleListLive(w http.ResponseWriter, _ *http.Request) {
	infos := []manager.Info{}
	for _, d := range s.mgr.List() {
		if !d.IsStatic() {
			infos = append(infos, d.Info())
		}
	}
	writeJSON(w, http.StatusOK, infos)
}

// handleGetLive reports the maintainer's info in every lifecycle state
// — it is the "what is wrong with my dataset" endpoint, so loading and
// quarantined datasets answer 200 with their state and reason rather
// than 503.
func (s *Server) handleGetLive(w http.ResponseWriter, r *http.Request) {
	if d := s.lookup(w, r, false); d != nil {
		writeJSON(w, http.StatusOK, d.Info())
	}
}

// updater resolves {name} to a ready live maintainer, writing the 400,
// 404 or 503 itself.
func (s *Server) updater(w http.ResponseWriter, r *http.Request) (*manager.Dataset, *disc.Updater) {
	d := s.lookup(w, r, false)
	if d == nil {
		return nil, nil
	}
	u, err := d.Updater()
	if err != nil {
		writeUnavailable(w, err)
		return nil, nil
	}
	return d, u
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
// counts the writes since the last flush; with "flush": true the operation
// converges before responding and Selected reports whether the new
// point became a representative.
func (s *Server) handleLiveInsert(w http.ResponseWriter, r *http.Request) {
	var req liveInsertRequest
	if err := s.decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	d, u := s.updater(w, r)
	if u == nil {
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
	d, u := s.updater(w, r)
	if u == nil {
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
	Repaired int `json:"repaired"` // writes the flush converged
	Size     int `json:"size"`
	Pending  int `json:"pending"`
}

func (s *Server) handleLiveFlush(w http.ResponseWriter, r *http.Request) {
	_, u := s.updater(w, r)
	if u == nil {
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
	d := s.lookup(w, r, false)
	if d == nil {
		return
	}
	v, err := d.View()
	if err != nil {
		writeUnavailable(w, err)
		return
	}
	// Both selections are shared, read-only slices; encoding only reads
	// them, so the body borrows them rather than copying per read.
	if v.Upd != nil {
		ids := v.Upd.Selection()
		writeJSON(w, http.StatusOK, liveSelectionBody{
			Size:    len(ids),
			Pending: v.Upd.Pending(),
			IDs:     ids,
			State:   string(v.State),
		})
		return
	}
	writeJSON(w, http.StatusOK, liveSelectionBody{
		Size:  len(v.Deg.Selection),
		IDs:   v.Deg.Selection,
		State: string(v.State),
	})
}
