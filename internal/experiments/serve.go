package experiments

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ServeConfig parameterises one measured load run against a live
// discserve (see cmd/discload). The generator seeds the server with a
// dataset and a live maintainer, then drives a configurable mix of
// select / zoom / insert / delete / selection traffic from Workers
// concurrent clients for Duration, measuring client-observed latency
// per endpoint and scraping /metrics before and after for the
// server-side counter deltas.
type ServeConfig struct {
	// BaseURL of the running server, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Workers is the number of concurrent client goroutines.
	Workers int
	// Duration of the measured phase (setup excluded).
	Duration time.Duration
	// Mix assigns relative weights to the operations, e.g.
	// "select=2,zoom=2,insert=3,delete=1,selection=2". Zero-weight ops
	// are never issued.
	Mix string
	// N and Dim shape the seeded dataset; Radius is the select radius.
	N      int
	Dim    int
	Radius float64
	// Seed drives the point generator and the per-worker op streams.
	Seed uint64
}

// ServeEndpoint is the measured result of one operation kind. Shed
// counts 503 responses that were retried after honoring the server's
// Retry-After hint (capped, jittered); Availability is the percentage
// of attempts that ultimately succeeded — sheds and errors both count
// against it, so a server that throttles heavily cannot hide behind
// retries.
type ServeEndpoint struct {
	Endpoint     string
	Requests     int64
	Errors       int64
	Shed         int64
	Availability float64
	Throughput   float64
	P50Ms        float64
	P99Ms        float64
	MaxMs        float64
}

// ServeMetricsDelta holds server-side counter movements over the
// measured phase, read from /metrics scrapes before and after. Series
// are summed over their label variants, so e.g. Requests aggregates all
// routes and status classes.
type ServeMetricsDelta struct {
	Requests    float64
	Shed        float64
	Panics      float64
	WALAppends  float64
	WALFsyncs   float64
	Resimulated float64
}

// ServeBench is the machine-readable result of one load run; its Suite
// is the BENCH_SERVE.json baseline.
type ServeBench struct {
	N          int
	Dim        int
	Radius     float64
	Seed       uint64
	Workers    int
	DurationS  float64
	Mix        string
	GoMaxProcs int
	GoVersion  string

	Endpoints []ServeEndpoint
	Server    *ServeMetricsDelta
}

// serveOps enumerates the drivable operations in mix order.
var serveOps = []string{"select", "zoom", "insert", "delete", "selection"}

// DefaultServeMix is the standing traffic shape: read-heavy with a live
// mutation stream, roughly what the paper's interactive scenario implies.
const DefaultServeMix = "select=2,zoom=2,insert=3,delete=1,selection=2"

// parseMix expands a weight spec into a lookup slice over serveOps.
func parseMix(mix string) ([]int, error) {
	weights := make([]int, len(serveOps))
	for _, part := range strings.Split(mix, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("mix entry %q: want op=weight", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("mix entry %q: bad weight", part)
		}
		idx := -1
		for i, op := range serveOps {
			if op == name {
				idx = i
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("mix entry %q: unknown op (have %s)", part, strings.Join(serveOps, ", "))
		}
		weights[idx] = w
	}
	total := 0
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("mix %q has no positive weights", mix)
	}
	return weights, nil
}

// serveClient wraps the HTTP plumbing of one load run.
type serveClient struct {
	base string
	hc   *http.Client
}

// Retry policy for 503 responses: the server's Retry-After hint is
// honored but capped (a load generator must not let one shed park a
// worker for a full second) and jittered (a worker fleet must not
// retry in lockstep). serveRetryMax bounds retries per logical op.
const (
	serveRetryMax = 3
	serveRetryCap = 250 * time.Millisecond
)

// retryWait turns a Retry-After hint into a capped, full-jitter sleep
// in [min(hint,cap)/2, min(hint,cap)].
func retryWait(rng *rand.Rand, hint time.Duration) time.Duration {
	if hint <= 0 || hint > serveRetryCap {
		hint = serveRetryCap
	}
	half := hint / 2
	return half + time.Duration(rng.Int64N(int64(half)+1))
}

// retryAfterOf parses a 503's Retry-After header (seconds form).
func retryAfterOf(resp *http.Response) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return time.Duration(n) * time.Second
		}
	}
	return 0
}

func (c *serveClient) postJSON(path string, body any, out any) (int, time.Duration, error) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return 0, 0, err
		}
	}
	resp, err := c.hc.Post(c.base+path, "application/json", &buf)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		return resp.StatusCode, 0, json.NewDecoder(resp.Body).Decode(out)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, retryAfterOf(resp), nil
}

func (c *serveClient) get(path string) (int, time.Duration, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, retryAfterOf(resp), nil
}

// ScrapeMetrics fetches the raw /metrics exposition.
func ScrapeMetrics(baseURL string) ([]byte, error) {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// parseProm sums Prometheus text samples by base metric name (labels
// stripped), skipping histogram bucket series so the sums stay
// meaningful for counters and gauges.
func parseProm(data []byte) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(line[sp+1:]), 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out
}

// RunServe seeds the server and drives the measured load. The server
// must already be listening and ready at cfg.BaseURL.
func RunServe(cfg ServeConfig) (*ServeBench, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.Mix == "" {
		cfg.Mix = DefaultServeMix
	}
	if cfg.N <= 0 {
		cfg.N = 2000
	}
	if cfg.Dim <= 0 {
		cfg.Dim = 2
	}
	if cfg.Radius <= 0 {
		cfg.Radius = 0.05
	}
	weights, err := parseMix(cfg.Mix)
	if err != nil {
		return nil, fmt.Errorf("experiments: serve: %w", err)
	}

	c := &serveClient{base: cfg.BaseURL, hc: &http.Client{Timeout: 2 * time.Minute}}

	// Seed: one batch dataset for select/zoom, one live maintainer for
	// the mutation stream. Setup is unmeasured.
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xd15c))
	points := make([][]float64, cfg.N)
	for i := range points {
		p := make([]float64, cfg.Dim)
		for d := range p {
			p[d] = rng.Float64()
		}
		points[i] = p
	}
	if code, _, err := c.postJSON("/v1/datasets", map[string]any{
		"name": "load", "metric": "euclidean", "points": points,
	}, nil); err != nil || code >= 300 {
		return nil, fmt.Errorf("experiments: serve: seed dataset: status %d, err %v", code, err)
	}
	var sel struct {
		ID string `json:"id"`
	}
	if code, _, err := c.postJSON("/v1/datasets/load/select", map[string]any{"radius": cfg.Radius}, &sel); err != nil || code >= 300 || sel.ID == "" {
		return nil, fmt.Errorf("experiments: serve: seed select: status %d, id %q, err %v", code, sel.ID, err)
	}
	liveSeed := points[:min(cfg.N, 500)]
	if code, _, err := c.postJSON("/v1/live", map[string]any{
		"name": "loadlive", "radius": cfg.Radius, "metric": "euclidean", "points": liveSeed,
	}, nil); err != nil || code >= 300 {
		return nil, fmt.Errorf("experiments: serve: seed live: status %d, err %v", code, err)
	}

	before, err := ScrapeMetrics(cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("experiments: serve: %w", err)
	}

	type sample struct {
		op    int
		ns    int64
		ok    bool
		sheds int
	}
	results := make([][]sample, cfg.Workers)
	deadline := time.Now().Add(cfg.Duration)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := rand.New(rand.NewPCG(cfg.Seed, uint64(w)+1))
			// Per-worker pool of live ids this worker inserted, so
			// deletes always target ids it owns.
			var owned []int
			total := 0
			for _, wt := range weights {
				total += wt
			}
			buf := make([]sample, 0, 4096)
			// Strictly in or out: zooming to the result's own radius is a
			// 400 by design.
			zoomRadii := []float64{cfg.Radius / 2, cfg.Radius * 2}
			for time.Now().Before(deadline) {
				pick := wrng.IntN(total)
				op := 0
				for i, wt := range weights {
					if pick < wt {
						op = i
						break
					}
					pick -= wt
				}
				// A delete with nothing owned degrades to an insert so
				// the mix stays issueable from a cold start.
				if serveOps[op] == "delete" && len(owned) == 0 {
					for i, name := range serveOps {
						if name == "insert" {
							op = i
						}
					}
				}
				var insertedID, deleteID int
				if serveOps[op] == "delete" {
					// Pick the victim id once, outside the retry loop: a
					// 503'd delete retries the SAME request.
					k := wrng.IntN(len(owned))
					deleteID = owned[k]
					owned[k] = owned[len(owned)-1]
					owned = owned[:len(owned)-1]
				}
				issue := func() (int, time.Duration, error) {
					switch serveOps[op] {
					case "select":
						return c.postJSON("/v1/datasets/load/select", map[string]any{"radius": cfg.Radius}, nil)
					case "zoom":
						return c.postJSON("/v1/results/"+sel.ID+"/zoom", map[string]any{
							"radius": zoomRadii[wrng.IntN(len(zoomRadii))],
						}, nil)
					case "insert":
						p := make([]float64, cfg.Dim)
						for d := range p {
							p[d] = wrng.Float64()
						}
						var ir struct {
							ID int `json:"id"`
						}
						code, ra, err := c.postJSON("/v1/live/loadlive/insert", map[string]any{"point": p, "flush": true}, &ir)
						insertedID = ir.ID
						return code, ra, err
					case "delete":
						return c.postJSON("/v1/live/loadlive/delete", map[string]any{"id": deleteID, "flush": true}, nil)
					default: // selection
						return c.get("/v1/live/loadlive/selection")
					}
				}
				// Issue, honoring Retry-After on 503 with capped jitter —
				// the retry sleeps count toward the op's latency, so a
				// throttling server still pays in p99.
				var code int
				var err error
				sheds := 0
				start := time.Now()
				for attempt := 0; ; attempt++ {
					var ra time.Duration
					code, ra, err = issue()
					if err != nil || code != http.StatusServiceUnavailable || attempt >= serveRetryMax {
						break
					}
					sheds++
					time.Sleep(retryWait(wrng, ra))
				}
				ok := err == nil && code < 400
				if ok && serveOps[op] == "insert" {
					owned = append(owned, insertedID)
				}
				buf = append(buf, sample{op: op, ns: time.Since(start).Nanoseconds(), ok: ok, sheds: sheds})
			}
			results[w] = buf
		}(w)
	}
	wg.Wait()

	after, err := ScrapeMetrics(cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("experiments: serve: %w", err)
	}

	bench := &ServeBench{
		N:          cfg.N,
		Dim:        cfg.Dim,
		Radius:     cfg.Radius,
		Seed:       cfg.Seed,
		Workers:    cfg.Workers,
		DurationS:  cfg.Duration.Seconds(),
		Mix:        cfg.Mix,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}

	perOp := make([][]float64, len(serveOps))
	errs := make([]int64, len(serveOps))
	sheds := make([]int64, len(serveOps))
	for _, buf := range results {
		for _, s := range buf {
			perOp[s.op] = append(perOp[s.op], float64(s.ns)/1e6)
			if !s.ok {
				errs[s.op]++
			}
			sheds[s.op] += int64(s.sheds)
		}
	}
	for i, op := range serveOps {
		if weights[i] == 0 && len(perOp[i]) == 0 {
			continue
		}
		xs := perOp[i]
		sort.Float64s(xs)
		ep := ServeEndpoint{
			Endpoint:   op,
			Requests:   int64(len(xs)),
			Errors:     errs[i],
			Shed:       sheds[i],
			Throughput: float64(len(xs)) / cfg.Duration.Seconds(),
		}
		// Availability: attempts = final ops + shed retries; anything
		// that was shed or ultimately failed counts against it.
		if attempts := ep.Requests + ep.Shed; attempts > 0 {
			ep.Availability = 100 * float64(ep.Requests-ep.Errors) / float64(attempts)
		}
		if len(xs) > 0 {
			ep.P50Ms = percentile(xs, 0.50)
			ep.P99Ms = percentile(xs, 0.99)
			ep.MaxMs = xs[len(xs)-1]
		}
		bench.Endpoints = append(bench.Endpoints, ep)
	}

	b, a := parseProm(before), parseProm(after)
	delta := func(name string) float64 { return a[name] - b[name] }
	bench.Server = &ServeMetricsDelta{
		Requests:    delta("disc_http_requests_total"),
		Shed:        delta("disc_http_shed_total"),
		Panics:      delta("disc_http_panics_total"),
		WALAppends:  delta("disc_wal_appends_total"),
		WALFsyncs:   delta("disc_wal_fsyncs_total"),
		Resimulated: delta("disc_live_resimulated_objects_total"),
	}
	return bench, nil
}

// Suite renders the load run in the bench row schema. Workers,
// duration and mix shape the measured load as much as n and radius do,
// so all of them are identity.
func (s *ServeBench) Suite() Suite {
	return Suite{
		Name: "serve",
		Identity: map[string]any{"n": s.N, "dim": s.Dim, "radius": s.Radius, "seed": s.Seed,
			"workers": s.Workers, "duration_s": s.DurationS, "mix": s.Mix, "gomaxprocs": s.GoMaxProcs},
		Info: map[string]string{"go_version": s.GoVersion},
		Rows: s.Rows(),
	}
}

// Rows lists the run's measurements. Per endpoint, throughput is a
// floor and the p99 tail a ceiling; availability is a floor on its
// shortfall from 100%; and any errored request fails outright, since
// errored requests return fast and would flatter both gated numbers.
// The server-side counter deltas are recorded.
func (s *ServeBench) Rows() []Row {
	var rows []Row
	for _, e := range s.Endpoints {
		rows = append(rows,
			info(e.Endpoint, "requests", "count", float64(e.Requests)),
			info(e.Endpoint, "errors", "count", float64(e.Errors)).atMost(0),
			info(e.Endpoint, "shed", "count", float64(e.Shed)),
			higher(e.Endpoint, "availability_pct", "%", e.Availability).atMost(100),
			higher(e.Endpoint, "throughput_rps", "1/s", e.Throughput),
			info(e.Endpoint, "p50_ms", "ms", e.P50Ms),
			lower(e.Endpoint, "p99_ms", "ms", e.P99Ms),
			info(e.Endpoint, "max_ms", "ms", e.MaxMs),
		)
	}
	if v := s.Server; v != nil {
		rows = append(rows,
			info("server", "http_requests", "count", v.Requests),
			info("server", "http_shed", "count", v.Shed),
			info("server", "http_panics", "count", v.Panics),
			info("server", "wal_appends", "count", v.WALAppends),
			info("server", "wal_fsyncs", "count", v.WALFsyncs),
			info("server", "live_resimulated_objects", "count", v.Resimulated),
		)
	}
	return rows
}
