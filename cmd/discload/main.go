// Command discload turns "the server feels fast" into checked-in
// numbers: it drives a configurable mix of select / zoom / insert /
// delete / selection traffic against a running discserve from
// concurrent workers, measures client-observed p50/p99 latency,
// throughput and availability per endpoint (503s are retried honoring
// the server's Retry-After hint with capped jitter, and every shed
// attempt counts against availability), scrapes GET /metrics before
// and after for the server-side counter deltas (WAL appends, fsyncs,
// shed requests, re-simulated objects), and writes the result as a
// "serve" suite in the bench row schema that cmd/benchguard diffs
// against BENCH_SERVE.json (README.md, "Benchmarks").
//
// Point it at an already-running server:
//
//	discload -addr http://127.0.0.1:8080 -duration 10s -workers 4 -out BENCH_SERVE.json
//
// or let it spawn one for the run (the CI / `make bench-serve` mode —
// picks a free port, waits for /readyz, terminates the server after):
//
//	discload -spawn ./bin/discserve -duration 10s -out BENCH_SERVE.json
//
// The traffic mix is weight-per-op, e.g. the default
// "select=2,zoom=2,insert=3,delete=1,selection=2"; -metrics-out saves
// the post-run /metrics scrape for artifact upload.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"time"

	"github.com/discdiversity/disc/internal/experiments"
)

func main() {
	addr := flag.String("addr", "", "base URL of a running discserve (e.g. http://127.0.0.1:8080); empty requires -spawn")
	spawn := flag.String("spawn", "", "path to a discserve binary to spawn on a free port for the run")
	workers := flag.Int("workers", 4, "concurrent client workers")
	duration := flag.Duration("duration", 5*time.Second, "measured load duration (setup excluded)")
	mix := flag.String("mix", experiments.DefaultServeMix, "op weights: select=W,zoom=W,insert=W,delete=W,selection=W")
	n := flag.Int("n", 2000, "seeded dataset cardinality")
	dim := flag.Int("dim", 2, "seeded dataset dimensionality")
	radius := flag.Float64("radius", 0.05, "select/zoom radius")
	seed := flag.Uint64("seed", 42, "workload seed")
	out := flag.String("out", "", "write BENCH_SERVE.json here (empty = stdout)")
	metricsOut := flag.String("metrics-out", "", "save the post-run /metrics scrape to this file")
	flag.Parse()

	if (*addr == "") == (*spawn == "") {
		fatalf("exactly one of -addr or -spawn is required")
	}

	base := *addr
	if *spawn != "" {
		var stop func()
		var err error
		base, stop, err = spawnServer(*spawn)
		if err != nil {
			fatalf("spawn: %v", err)
		}
		defer stop()
	}

	bench, err := experiments.RunServe(experiments.ServeConfig{
		BaseURL:  base,
		Workers:  *workers,
		Duration: *duration,
		Mix:      *mix,
		N:        *n,
		Dim:      *dim,
		Radius:   *radius,
		Seed:     *seed,
	})
	if err != nil {
		fatalf("%v", err)
	}

	if *metricsOut != "" {
		scrape, err := experiments.ScrapeMetrics(base)
		if err != nil {
			fatalf("metrics scrape: %v", err)
		}
		if err := os.WriteFile(*metricsOut, scrape, 0o644); err != nil {
			fatalf("metrics scrape: %v", err)
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		w = f
	}
	if err := bench.Suite().WriteJSON(w); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "discload: "+format+"\n", args...)
	os.Exit(1)
}

// spawnServer starts the given discserve binary on a free loopback
// port, waits until /readyz answers 200, and returns the base URL plus
// a stop function that terminates and reaps the process.
func spawnServer(bin string) (string, func(), error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hostport := l.Addr().String()
	l.Close() // free the port for the child; the race window is ours alone

	// A throwaway data dir makes the maintainer durable, so the run
	// exercises (and the scrape reports) the WAL append/fsync path.
	dataDir, err := os.MkdirTemp("", "discload-data-*")
	if err != nil {
		return "", nil, err
	}

	cmd := exec.Command(bin, "-addr", hostport, "-max-body", "1073741824",
		"-data-dir", dataDir, "-fsync", "interval")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dataDir)
		return "", nil, err
	}
	stop := func() {
		_ = cmd.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { _ = cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = cmd.Process.Kill()
			<-done
		}
		os.RemoveAll(dataDir)
	}

	base := "http://" + hostport
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return base, stop, nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	stop()
	return "", nil, fmt.Errorf("server at %s never became ready", base)
}
