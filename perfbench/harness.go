package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	disc "github.com/discdiversity/disc"
	"github.com/discdiversity/disc/internal/server"
)

// workload is one seeded traffic mix. Every setup resets the op
// generator, so each measured pass after a setup issues the same
// sequence.
type workload interface {
	// prepare generates the inputs from the seed and computes the
	// oracle answers; untimed.
	prepare() error
	// setup boots a server, loads the data and runs the warm-up prefix;
	// timed as setup_s. rep numbers the repetitions.
	setup(rep int) error
	// teardown closes what setup started.
	teardown() error
	// run issues the phase's fixed op sequence.
	run(p *phase) error
	// heapLive returns the live heap (after a forced GC) with the served
	// state resident.
	heapLive() (uint64, error)
	// check verifies the end state against the oracle.
	check(p *phase) error
	// identity describes the inputs: dataset shapes, radii, clients.
	identity() map[string]any
	// layers splits the traced phase's client time by layer, per op
	// kind, and adds the workload's own detail rows.
	layers(p *phase, d *details) []kindLayers
}

var workloads = map[string]func(b *bench, dir string) workload{
	"explore": newExplore,
	"live":    newLive,
	"restart": newRestart,
}

// serverOptions are discserve's defaults: -max-inflight 64,
// -request-timeout 30s, -max-body 64 MiB, logs discarded, and for a
// data directory -fsync-interval 100ms under the given fsync policy.
func serverOptions(dataDir string, fsync disc.FsyncPolicy) []server.Option {
	opts := []server.Option{
		server.WithMaxInflight(64),
		server.WithRequestTimeout(30 * time.Second),
		server.WithMaxBodyBytes(64 << 20),
		server.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))),
	}
	if dataDir != "" {
		opts = append(opts,
			server.WithDataDir(dataDir),
			server.WithLiveFsync(fsync),
			server.WithLiveFsyncInterval(100*time.Millisecond))
	}
	return opts
}

// bench owns the loopback listener, the HTTP client, the tracer and the
// telemetry probe shared by every phase of a run.
type bench struct {
	cfg    config
	tr     *tracer
	probe  *probe
	front  *front
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
}

func newBench(cfg config) (*bench, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	b := &bench{
		cfg:   cfg,
		tr:    tr,
		probe: newProbe(),
		front: &front{tr: tr},
		base:  "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			DisableCompression:  true,
		}},
		served: make(chan error, 1),
	}
	// discserve's http.Server timeouts.
	b.hs = &http.Server{
		Handler:           b.front,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go func() { b.served <- b.hs.Serve(ln) }()
	return b, nil
}

// close stops the listener and waits for it to return.
func (b *bench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = b.hs.Shutdown(ctx)
	<-b.served
	b.client.CloseIdleConnections()
}

// serve routes the listener to srv's handler.
func (b *bench) serve(srv *server.Server) { b.front.set(srv.Handler()) }

// reply is one answered request.
type reply struct {
	status int
	body   []byte
	lat    time.Duration
	cpu    time.Duration
}

// cpuNow returns the CPU time the process has used, user plus system.
// The kernel derives it from the scheduler's run time, which on a
// paravirtualised guest leaves out the time the host gave the vCPU to
// someone else; a wall clock counts that time.
func cpuNow() time.Duration {
	u := readUsage()
	return u.user + u.sys
}

// usage is the process's getrusage counters, or the difference of two
// reads.
type usage struct {
	user, sys time.Duration
	minflt    int64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano()), ru.Minflt}
}

func (u usage) sub(prev usage) usage {
	return usage{u.user - prev.user, u.sys - prev.sys, u.minflt - prev.minflt}
}

// call issues one request and reads the whole response. The latency
// runs from just before the request is sent until its body is read; cpu
// is the process CPU time used over the same interval, client and
// server together, which belongs to this request because every
// workload has one request in flight at a time. In
// a traced phase it records a client span named "client.<kind>" under
// parent, joined later to the handler span by the echoed X-Request-Id.
func (b *bench) call(kind string, parent int64, method, path string, body any) (reply, error) {
	var rd io.Reader
	if body != nil {
		data, ok := body.([]byte)
		if !ok {
			var err error
			if data, err = json.Marshal(body); err != nil {
				return reply{}, err
			}
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, b.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	cpu0, start := cpuNow(), time.Now()
	resp, err := b.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end, cpu1 := time.Now(), cpuNow()
	if err != nil {
		return reply{}, err
	}
	if b.tr.on() {
		b.tr.add(span{Name: "client." + kind, Parent: parent, RID: resp.Header.Get("X-Request-Id"),
			Start: b.tr.ts(start), End: b.tr.ts(end)})
	}
	return reply{status: resp.StatusCode, body: data, lat: end.Sub(start), cpu: cpu1 - cpu0}, nil
}

// mustCall is call for set-up requests: any non-2xx answer is an error.
func (b *bench) mustCall(method, path string, body any, into any) error {
	rep, err := b.call("setup", 0, method, path, body)
	if err != nil {
		return err
	}
	if rep.status/100 != 2 {
		return fmt.Errorf("%s %s: %d %s", method, path, rep.status, strings.TrimSpace(string(rep.body)))
	}
	if into != nil {
		return json.Unmarshal(rep.body, into)
	}
	return nil
}

// front is the listener's handler: the current server's handler,
// swappable between restarts, wrapped by a span recorder while a traced
// phase runs.
type front struct {
	h  atomic.Pointer[handlerBox]
	tr *tracer
}

type handlerBox struct{ http.Handler }

func (f *front) set(h http.Handler) { f.h.Store(&handlerBox{h}) }

func (f *front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	hb := f.h.Load()
	if !f.tr.on() {
		hb.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	hb.ServeHTTP(w, r)
	f.tr.add(span{Name: "handler", RID: w.Header().Get("X-Request-Id"), Start: f.tr.ts(start), End: f.tr.ts(time.Now())})
}

// span is one timed interval of the traced run. Handler spans carry no
// parent when recorded; joined resolves it from the request id.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	RID    string `json:"request_id,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0      time.Time
	enabled atomic.Bool
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) on() bool              { return t.enabled.Load() }
func (t *tracer) ts(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }
func (t *tracer) newID() int64          { return t.nextID.Add(1) }

// add records s, assigning an id when it has none.
func (t *tracer) add(s span) {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// since records a span named name from start to now under parent.
func (t *tracer) since(name string, parent int64, start time.Time) {
	if t.on() {
		t.add(span{Name: name, Parent: parent, Start: t.ts(start), End: t.ts(time.Now())})
	}
}

// joined returns the spans with every handler span's parent set to the
// client span that carried the same request id.
func (t *tracer) joined() []span {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	client := make(map[string]int64)
	for _, s := range spans {
		if s.RID != "" && strings.HasPrefix(s.Name, "client.") {
			client[s.RID] = s.ID
		}
	}
	for i, s := range spans {
		if s.Name == "handler" {
			spans[i].Parent = client[s.RID]
		}
	}
	return spans
}

func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.joined() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// phase is one measured pass over a workload's op sequence.
type phase struct {
	b      *bench
	traced bool

	mu        sync.Mutex
	samples   map[string][]sample // op kind -> its own latency samples
	bytes     map[string]int64
	accesses  map[string]int64
	stages    map[string]reading // op kind -> telemetry deltas taken around its requests
	attempted int
	failed    int

	wall     time.Duration
	usage    usage
	tel      reading
	rt       runtimeReading
	heapLive uint64
}

func newPhase(b *bench, traced bool) *phase {
	return &phase{
		b: b, traced: traced,
		samples:  make(map[string][]sample),
		bytes:    make(map[string]int64),
		accesses: make(map[string]int64),
		stages:   make(map[string]reading),
	}
}

// measure runs w's op sequence as this phase.
func (p *phase) measure(w workload) error {
	p.b.tr.enabled.Store(p.traced)
	tel0, rt0 := p.b.probe.read(), readRuntime()
	u0, start := readUsage(), time.Now()
	err := w.run(p)
	p.wall, p.usage = time.Since(start), readUsage().sub(u0)
	p.tel, p.rt = p.b.probe.read().sub(tel0), readRuntime().sub(rt0)
	p.b.tr.enabled.Store(false)
	if err != nil {
		return err
	}
	p.heapLive, err = w.heapLive()
	return err
}

// record counts one attempted op of kind with its latency and CPU
// time, response size and reported M-tree accesses.
func (p *phase) record(kind string, lat, cpu time.Duration, ok bool, bytes int, accesses int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.samples[kind] = append(p.samples[kind], sample{ms: float64(lat) / 1e6, cpuMs: float64(cpu) / 1e6})
	p.bytes[kind] += int64(bytes)
	p.accesses[kind] += accesses
	p.attempted++
	if !ok {
		p.failed++
	}
}

// miss counts an op that could not be issued because the op it depends
// on failed.
func (p *phase) miss() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	p.failed++
}

// addStages adds a telemetry delta taken around one request of kind.
// Only valid where that request was the only one doing staged work.
func (p *phase) addStages(kind string, d reading) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stages[kind] = p.stages[kind].add(d)
}

func (p *phase) ops() int {
	n := 0
	for _, s := range p.samples {
		n += len(s)
	}
	return n
}

func (p *phase) count(kind string) int { return len(p.samples[kind]) }

// allSamples returns every latency sample of the phase.
func (p *phase) allSamples() []sample {
	var all []sample
	for _, s := range p.samples {
		all = append(all, s...)
	}
	return all
}

// sample is one op's latency and the process CPU time it used.
type sample struct {
	ms, cpuMs float64
}

// walls and cpus return the samples' latencies and CPU times.
func walls(samples []sample) []float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = s.ms
	}
	return xs
}

func cpus(samples []sample) []float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = s.cpuMs
	}
	return xs
}

// opsPerCPUSecond is the op count over the CPU time the ops used: the
// rate one fully available core would sustain.
func opsPerCPUSecond(samples []sample) float64 {
	total := 0.0
	for _, s := range samples {
		total += s.cpuMs
	}
	if total == 0 {
		return 0
	}
	return float64(len(samples)) / (total / 1e3)
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// runtimeReading is a point-in-time read of the runtime/metrics the
// run reports.
type runtimeReading struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeReading {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeReading{allocBytes: sampleValue(s[0]), gcCPU: sampleValue(s[1]), totalCPU: sampleValue(s[2])}
}

func (r runtimeReading) sub(prev runtimeReading) runtimeReading {
	return runtimeReading{r.allocBytes - prev.allocBytes, r.gcCPU - prev.gcCPU, r.totalCPU - prev.totalCPU}
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// gcLiveHeap forces a collection and returns /gc/heap/live:bytes.
func gcLiveHeap() (uint64, error) {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0, errors.New("runtime does not report /gc/heap/live:bytes")
	}
	return s[0].Value.Uint64(), nil
}

// layoutSeed fixes the cluster layout (centres, spreads, weights) and
// the points every workload loads. The run seed draws only the op
// sequences. When the run seed also drew the datasets, one seed's live
// writes cost about 10% more CPU than another's, which runs at
// different seeds then read as noise.
const layoutSeed = 1

// clusteredPoints returns the first n points of layout's sequence of
// clustered 2-d points (10 clusters). The sequence does not depend on
// n, so a prefix is the same set whatever n is.
func clusteredPoints(n int, layout uint64) ([]disc.Point, error) {
	ds, err := disc.ClusteredDataset(n, 2, 10, layout)
	if err != nil {
		return nil, err
	}
	return ds.Points, nil
}

// shuffle puts pts in an order drawn from seed and stream.
func shuffle(pts []disc.Point, seed, stream uint64) {
	rng := rand.New(rand.NewPCG(seed, stream))
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
}

// opsFor scales a nominal per-second op rate to the run length.
func opsFor(seconds, perSecond float64) int {
	n := int(math.Round(seconds * perSecond))
	if n < 1 {
		n = 1
	}
	return n
}
