// Command discserve runs the DisC diversification HTTP service: upload
// datasets, select diverse subsets and zoom them over a JSON API (see
// internal/server for the endpoint reference).
//
// Usage:
//
//	discserve -addr :8080 [-data-dir ./data]
//
//	curl -X POST localhost:8080/v1/datasets -d '{"name":"demo","points":[[0.1,0.2],[0.8,0.9]]}'
//	curl -X POST localhost:8080/v1/datasets/demo/snapshot
//	id=$(curl -s -X POST localhost:8080/v1/datasets/demo/select -d '{"radius":0.3}' | jq -r .id)
//	curl -X POST localhost:8080/v1/results/$id/zoom -d '{"radius":0.1}'
//	curl localhost:8080/healthz
//	curl localhost:8080/readyz
//	curl localhost:8080/metrics
//
// A result id is a derivation key (dataset, content fingerprint,
// algorithm, radius, zoom radii, a checksum of the selected ids): the
// same select answers the same id, and an id stays valid across
// restarts once its dataset is saved (a basic id only while the
// recompute picks the same ids; README "Serving").
//
// Live (incremental) maintainers keep a DisC selection converged under
// a stream of inserts and deletes without rebuilding — reads are
// bounded-stale until a flush barrier, and each mutation may request
// per-op convergence with "flush": true:
//
//	curl -X POST localhost:8080/v1/live -d '{"name":"feed","radius":0.1,"points":[[0.1,0.2]]}'
//	curl -X POST localhost:8080/v1/live/feed/insert -d '{"point":[0.8,0.9],"flush":true}'
//	curl -X POST localhost:8080/v1/live/feed/delete -d '{"id":0}'
//	curl -X POST localhost:8080/v1/live/feed/flush
//	curl -X POST localhost:8080/v1/live/feed/snapshot
//	curl localhost:8080/v1/live/feed/selection
//
// With -data-dir DIR, every dataset becomes durable in its own home
// directory DIR/<name>/. POST /v1/datasets/{name}/snapshot saves an
// uploaded dataset, with its prepared index artifacts, as
// DIR/<name>/static.discsnap, and a restart brings back every saved
// dataset, with its labels, on the index its file records. Live
// maintainers become
// crash-safe: every insert and delete is written to the write-ahead
// log (DIR/<name>/wal.*) before it is acknowledged (fsync policy per
// -fsync; see docs/DURABILITY.md), POST /v1/live/{name}/snapshot
// checkpoints the log into DIR/<name>/current.discsnap, and a
// restarted discserve replays snapshot+log so acknowledged mutations
// survive even a SIGKILL. Without -data-dir both snapshot routes
// answer 400.
//
// Each dataset recovers under its own supervisor (see
// docs/OPERATIONS.md), and only subdirectories holding a snapshot, a
// log segment or a QUARANTINE sidecar are datasets. One open per
// recovery validates every snapshot and log segment byte before it
// changes a file, transient failures retry with backoff (tune with
// -recovery-backoff, -recovery-backoff-cap, -recovery-max-attempts),
// corruption quarantines that dataset alone, and a live dataset with a
// good last snapshot keeps serving read-only while its log recovery
// retries. The listener comes up before recovery starts: /healthz
// answers immediately, while /readyz returns 503 (and API requests are
// refused) until recovery converges — a load balancer draining on
// readiness never routes to a half-recovered server. The server drains
// in-flight requests for up to 5 seconds on SIGINT/SIGTERM, then syncs
// and closes the logs.
//
// Observability (see docs/OBSERVABILITY.md): GET /metrics serves the
// process-wide registry in the Prometheus text format; -log-format and
// -log-level configure the structured (log/slog) logs; -pprof-addr
// exposes net/http/pprof on a separate listener (keep it private).
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	disc "github.com/discdiversity/disc"
	"github.com/discdiversity/disc/internal/server"
)

// shutdownTimeout bounds the graceful drain of in-flight requests.
const shutdownTimeout = 5 * time.Second

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dataDir := flag.String("data-dir", "", "directory of per-dataset homes (<dir>/<name>/) for static snapshots and live-maintainer WAL + checkpoints; empty keeps datasets memory-only")
	fsyncMode := flag.String("fsync", "always", "WAL fsync policy for live maintainers: always, interval, or none")
	fsyncInterval := flag.Duration("fsync-interval", 100*time.Millisecond, "batching window when -fsync=interval")
	backoffBase := flag.Duration("recovery-backoff", 0, "initial per-dataset recovery retry delay (0 = default 50ms)")
	backoffCap := flag.Duration("recovery-backoff-cap", 0, "maximum per-dataset recovery retry delay (0 = default 5s)")
	maxAttempts := flag.Int("recovery-max-attempts", 0, "consecutive failures before a dataset parks degraded/loading at the cap (0 = default 5)")
	maxInflight := flag.Int("max-inflight", 64, "maximum concurrently-served requests; excess get 503 + Retry-After (0 = unlimited)")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request deadline (0 = none)")
	maxBody := flag.Int64("max-body", 64<<20, "request body cap in bytes on mutating endpoints (0 = unlimited)")
	readTimeout := flag.Duration("read-timeout", 1*time.Minute, "http.Server ReadTimeout: full request including body (0 = none)")
	writeTimeout := flag.Duration("write-timeout", 2*time.Minute, "http.Server WriteTimeout (0 = none)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections (0 = none)")
	logFormat := flag.String("log-format", "text", "structured log encoding: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, or error (debug enables per-request access logs)")
	pprofAddr := flag.String("pprof-addr", "", "listen address for net/http/pprof (empty = disabled; never expose publicly)")
	flag.Parse()

	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		slog.Error("discserve: invalid logging flags", "err", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	fsync, err := disc.FsyncPolicyByName(*fsyncMode)
	if err != nil {
		fatal("discserve: bad -fsync", "err", err)
	}

	opts := []server.Option{
		server.WithMaxInflight(*maxInflight),
		server.WithRequestTimeout(*requestTimeout),
		server.WithMaxBodyBytes(*maxBody),
		server.WithLogger(logger),
	}
	if *dataDir != "" {
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			fatal("discserve: storage dir", "dir", *dataDir, "err", err)
		}
		opts = append(opts,
			server.WithDataDir(*dataDir),
			server.WithLiveFsync(fsync),
			server.WithLiveFsyncInterval(*fsyncInterval),
			server.WithRecoveryBackoff(*backoffBase, *backoffCap, *maxAttempts))
	}
	srv := server.New(opts...)
	srv.SetReady(false) // not ready until recovery converges

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Listener first, recovery second: health probes and metrics scrapes
	// answer during a long recovery, and /readyz gates traffic until it
	// converges.
	errc := make(chan error, 1)
	go func() {
		logger.Info("discserve listening", "addr", *addr)
		errc <- httpSrv.ListenAndServe()
	}()
	if *pprofAddr != "" {
		go servePprof(logger, *pprofAddr)
	}

	go func() {
		if *dataDir != "" {
			start := time.Now()
			n, err := srv.RestoreLive()
			if err != nil {
				fatal("discserve: recovery failed", "dir", *dataDir, "err", err)
			}
			if n > 0 {
				logger.Info("discserve: recovered datasets",
					"count", n, "dir", *dataDir, "elapsed", time.Since(start).Round(time.Millisecond).String())
			}
		}
		srv.SetReady(true)
		logger.Info("discserve ready")
	}()

	select {
	case err := <-errc:
		fatal("discserve: listener failed", "err", err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills
		srv.SetReady(false)
		logger.Info("discserve: shutting down", "drain_timeout", shutdownTimeout.String())
		shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Warn("discserve: shutdown", "err", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Warn("discserve: listener", "err", err)
		}
		// Sync and release the write-ahead logs only after the listener
		// has drained, so no in-flight mutation races the close.
		if err := srv.Close(); err != nil {
			logger.Warn("discserve: close", "err", err)
		}
	}
}

// newLogger builds the process logger from the -log-format/-log-level
// flags.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, errors.New(`-log-format must be "text" or "json"`)
	}
}

// servePprof runs the pprof handlers on their own mux and listener,
// never the API one: profiling endpoints stay off the public address.
func servePprof(logger *slog.Logger, addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Info("discserve: pprof listening", "addr", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Warn("discserve: pprof listener", "err", err)
	}
}
