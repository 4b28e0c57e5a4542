package server

// Chaos properties: randomized multi-dataset fault sweeps over the HTTP
// surface. The invariant under test is fault isolation — while one
// dataset's disk misbehaves (EIO mid-append, failed fsync, torn write,
// ENOSPC during checkpoint, unreadable files at boot, flipped bits),
// every other dataset keeps serving with zero errors, and the faulted
// dataset either recovers bit-identical to its acknowledged prefix or
// quarantines loudly. Run via `make chaos-props` (CI runs it under
// -race).

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	disc "github.com/discdiversity/disc"
	"github.com/discdiversity/disc/internal/faultio"
	"github.com/discdiversity/disc/internal/telemetry"
)

const chaosRadius = 2.0

// chaosEnv is one multi-dataset serving environment under fault
// injection: a durable server over a DirFS, plus the book-keeping the
// bit-identity check needs (every acknowledged insert, in order, per
// dataset).
type chaosEnv struct {
	t   *testing.T
	dir string
	fs  *faultio.DirFS
	srv *Server
	ts  *httptest.Server

	mu            sync.Mutex
	acked         map[string][]disc.Point
	indeterminate map[string][]disc.Point // 503'd mid-append: may or may not have reached disk
	seq           int
}

func newChaosEnv(t *testing.T, names ...string) *chaosEnv {
	t.Helper()
	e := &chaosEnv{
		t:             t,
		dir:           t.TempDir(),
		fs:            faultio.NewDirFS(),
		acked:         make(map[string][]disc.Point),
		indeterminate: make(map[string][]disc.Point),
	}
	e.srv = New(
		WithDataDir(e.dir),
		WithStorageFS(e.fs),
		WithRecoveryBackoff(5*time.Millisecond, 50*time.Millisecond, 4),
	)
	e.ts = httptest.NewServer(e.srv.Handler())
	t.Cleanup(e.ts.Close)
	for i, name := range names {
		pts := make([][]float64, 8)
		for j := range pts {
			pts[j] = []float64{float64(j) * 2.5, float64(i) * 100}
		}
		doJSON(t, "POST", e.ts.URL+"/v1/live",
			map[string]any{"name": name, "radius": chaosRadius, "points": pts}, http.StatusCreated, nil)
		for _, p := range pts {
			e.acked[name] = append(e.acked[name], disc.Point(p))
		}
	}
	return e
}

// nextPoint hands out a fresh, well-separated point (deterministic:
// chaos runs must reproduce).
func (e *chaosEnv) nextPoint(name string) disc.Point {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.seq++
	return disc.Point{float64(1000+e.seq) * 2.5, float64(len(name)) * 1000}
}

// insert posts one point and classifies the outcome: acknowledged
// (201, recorded for the bit-identity check), indeterminate (503 from
// a storage fault — the append may or may not have reached disk), or
// unavailable (503 while loading/degraded/quarantined: never applied).
// Any other status fails the test.
func (e *chaosEnv) insert(name string) (status string) {
	e.t.Helper()
	p := e.nextPoint(name)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(map[string]any{"point": []float64(p)}); err != nil {
		e.t.Fatal(err)
	}
	resp, err := http.Post(e.ts.URL+"/v1/live/"+name+"/insert", "application/json", &buf)
	if err != nil {
		e.t.Fatalf("insert %s: %v", name, err)
	}
	defer resp.Body.Close()
	var body struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&body)
	switch resp.StatusCode {
	case http.StatusCreated:
		e.mu.Lock()
		e.acked[name] = append(e.acked[name], p)
		e.mu.Unlock()
		return "acked"
	case http.StatusServiceUnavailable:
		if resp.Header.Get("Retry-After") == "" {
			e.t.Fatalf("503 on insert %s without Retry-After", name)
		}
		if body.State != "" {
			return "unavailable" // loading/degraded/quarantined: never applied
		}
		e.mu.Lock()
		e.indeterminate[name] = append(e.indeterminate[name], p)
		e.mu.Unlock()
		return "indeterminate"
	default:
		e.t.Fatalf("insert %s: status %d (%s)", name, resp.StatusCode, body.Error)
		return ""
	}
}

// state fetches the dataset's lifecycle state via its info endpoint
// (which answers 200 in every state).
func (e *chaosEnv) state(name string) string {
	e.t.Helper()
	var info struct {
		State string `json:"state"`
	}
	doJSON(e.t, "GET", e.ts.URL+"/v1/live/"+name, nil, http.StatusOK, &info)
	return info.State
}

func (e *chaosEnv) waitReady(name string) {
	e.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if e.state(name) == "ready" {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	e.t.Fatalf("dataset %q never returned to ready (state %s)", name, e.state(name))
}

// recoveries reads the process-wide disc_dataset_recoveries_total.
func recoveries() uint64 {
	return telemetry.Default().Counter("disc_dataset_recoveries_total", "").Value()
}

// waitFaultHandled waits until the supervisor has taken up a fault on
// name: the dataset has left ready, or a recovery has completed since
// the counter read before (a fast one can finish between two polls).
func (e *chaosEnv) waitFaultHandled(name string, before uint64) {
	e.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if recoveries() > before || e.state(name) != "ready" {
			return
		}
		time.Sleep(time.Millisecond)
	}
	e.t.Fatalf("dataset %q never took up the fault (state %s)", name, e.state(name))
}

// selection flushes and fetches the published selection ids.
func (e *chaosEnv) selection(name string) []int {
	e.t.Helper()
	doJSON(e.t, "POST", e.ts.URL+"/v1/live/"+name+"/flush", nil, http.StatusOK, nil)
	var sel liveSelection
	doJSON(e.t, "GET", e.ts.URL+"/v1/live/"+name+"/selection", nil, http.StatusOK, &sel)
	return sel.IDs
}

// replaySelection rebuilds the reference state by replaying ops
// one-by-one on a fresh in-memory updater — exactly what WAL recovery
// does — and returns its selection.
func replaySelection(t *testing.T, pts []disc.Point) []int {
	t.Helper()
	u, err := disc.NewUpdater(nil, chaosRadius)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if _, err := u.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	u.Flush()
	return u.Selection()
}

func sortedCopy(ids []int) []int {
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return out
}

func idsEqual(a, b []int) bool {
	a, b = sortedCopy(a), sortedCopy(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// verifyAckedPrefix asserts the dataset's served state is the replay of
// its acknowledged prefix. A single indeterminate op (its 503'd append
// may have reached disk before the fault — e.g. a failed fsync after a
// complete write) is accepted IF present as acked+indeterminate; every
// other shape fails.
func (e *chaosEnv) verifyAckedPrefix(name string) {
	e.t.Helper()
	got := e.selection(name)
	e.mu.Lock()
	acked := append([]disc.Point(nil), e.acked[name]...)
	indet := append([]disc.Point(nil), e.indeterminate[name]...)
	e.mu.Unlock()
	if idsEqual(got, replaySelection(e.t, acked)) {
		return
	}
	for i := range indet {
		withIndet := append(append([]disc.Point(nil), acked...), indet[:i+1]...)
		if idsEqual(got, replaySelection(e.t, withIndet)) {
			// The indeterminate suffix survived on disk: it is now part of
			// the durable history, so future identity checks must count it.
			e.mu.Lock()
			e.acked[name] = withIndet
			e.indeterminate[name] = nil
			e.mu.Unlock()
			return
		}
	}
	e.t.Fatalf("dataset %q selection %v matches neither acked prefix %v nor any indeterminate extension",
		name, got, replaySelection(e.t, acked))
}

// hammer drives reads and writes against datasets that must stay
// healthy while a fault plays elsewhere. Stop it with the returned
// func; any error observed fails the test (zero-error requirement).
func (e *chaosEnv) hammer(names ...string) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(e.ts.URL + "/v1/live/" + name + "/selection")
				if err != nil {
					e.t.Errorf("healthy dataset %q read failed: %v", name, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					e.t.Errorf("healthy dataset %q selection: status %d, want 200", name, resp.StatusCode)
					return
				}
				if i%3 == 0 {
					if st := e.insert(name); st != "acked" {
						e.t.Errorf("healthy dataset %q insert outcome %q, want acked", name, st)
						return
					}
				}
			}
		}(name)
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}

// runTransientFault is the shared transient-fault scenario: arm one
// fault against alpha's WAL, mutate alpha until the fault lands, and
// require (a) beta and gamma serve with zero errors throughout, (b)
// alpha returns to ready, (c) alpha's state is bit-identical to the
// replay of its acknowledged prefix, (d) alpha accepts writes again.
func runTransientFault(t *testing.T, rule *faultio.Rule) {
	e := newChaosEnv(t, "alpha", "beta", "gamma")
	e.fs.AddRule(rule)
	stop := e.hammer("beta", "gamma")
	defer stop()

	before := recoveries()
	sawFault := false
	for i := 0; i < 20 && !sawFault; i++ {
		if st := e.insert("alpha"); st == "indeterminate" {
			sawFault = true
		}
		if e.fs.Fired() > 0 {
			sawFault = true
		}
	}
	if !sawFault {
		t.Fatalf("fault %v never fired", rule)
	}
	// The supervisor learns of the poisoned log asynchronously: until it
	// has, alpha still reads ready and would refuse the next insert.
	e.waitFaultHandled("alpha", before)
	e.waitReady("alpha")
	e.verifyAckedPrefix("alpha")
	if st := e.insert("alpha"); st != "acked" {
		t.Fatalf("post-recovery insert outcome %q, want acked", st)
	}
	e.verifyAckedPrefix("alpha")
	stop()
	e.verifyAckedPrefix("beta")
	e.verifyAckedPrefix("gamma")
}

func TestChaosWALAppendEIO(t *testing.T) {
	runTransientFault(t, &faultio.Rule{
		Op: faultio.OpWrite, PathContains: "alpha/wal.", Times: 1, Err: syscall.EIO,
	})
}

func TestChaosWALSyncFault(t *testing.T) {
	runTransientFault(t, &faultio.Rule{
		Op: faultio.OpSync, PathContains: "alpha/wal.", Times: 1,
	})
}

func TestChaosTornAppend(t *testing.T) {
	runTransientFault(t, &faultio.Rule{
		Op: faultio.OpWrite, PathContains: "alpha/wal.", Times: 1, Partial: 7, Err: syscall.EIO,
	})
}

// TestChaosCheckpointENOSPC: a checkpoint whose snapshot write hits
// ENOSPC answers 503 but leaves the old snapshot + log authoritative —
// the dataset stays ready, keeps accepting writes, and a later retry
// succeeds. Other datasets never notice.
func TestChaosCheckpointENOSPC(t *testing.T) {
	e := newChaosEnv(t, "alpha", "beta", "gamma")
	stop := e.hammer("beta", "gamma")
	defer stop()

	e.fs.AddRule(&faultio.Rule{
		Op: faultio.OpWrite, PathContains: "alpha/current.discsnap.tmp", Err: syscall.ENOSPC,
	})
	resp, err := http.Post(e.ts.URL+"/v1/live/alpha/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("checkpoint under ENOSPC: status %d, want 503", resp.StatusCode)
	}
	if e.fs.Fired() == 0 {
		t.Fatal("ENOSPC rule never fired")
	}
	if _, err := os.Stat(filepath.Join(e.dir, "alpha", "current.discsnap")); !os.IsNotExist(err) {
		t.Fatalf("failed checkpoint left a snapshot behind: %v", err)
	}
	// The log is untouched by a failed snapshot write: alpha must still
	// be fully serviceable, no recovery required.
	if st := e.insert("alpha"); st != "acked" {
		t.Fatalf("insert after failed checkpoint: %q, want acked", st)
	}
	e.verifyAckedPrefix("alpha")

	// Space comes back: the retry must succeed where the original failed.
	e.fs.ClearRules()
	doJSON(t, "POST", e.ts.URL+"/v1/live/alpha/snapshot", nil, http.StatusCreated, nil)
	if _, err := os.Stat(filepath.Join(e.dir, "alpha", "current.discsnap")); err != nil {
		t.Fatalf("retried checkpoint wrote no snapshot: %v", err)
	}
	stop()
	e.verifyAckedPrefix("beta")
	e.verifyAckedPrefix("gamma")
}

// TestChaosBootRecoveryRetries: transient read errors during boot-time
// recovery are retried with backoff until the disk heals; the other
// datasets recover on their first attempt and are never delayed.
func TestChaosBootRecoveryRetries(t *testing.T) {
	e := newChaosEnv(t, "alpha", "beta", "gamma")
	before := map[string][]int{}
	for _, n := range []string{"alpha", "beta", "gamma"} {
		before[n] = e.selection(n)
	}
	e.ts.Close() // crash: abandon the server un-Closed

	fs2 := faultio.NewDirFS(&faultio.Rule{
		Op: faultio.OpRead, PathContains: "alpha/wal.", Times: 2, Err: syscall.EIO,
	})
	srv2 := New(
		WithDataDir(e.dir),
		WithStorageFS(fs2),
		WithRecoveryBackoff(5*time.Millisecond, 50*time.Millisecond, 4),
	)
	n, err := srv2.RestoreLive()
	if err != nil {
		t.Fatalf("RestoreLive: %v", err)
	}
	if n != 3 {
		t.Fatalf("RestoreLive = %d serving, want 3", n)
	}
	if fs2.Fired() != 2 {
		t.Fatalf("boot faults fired = %d, want 2", fs2.Fired())
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	for _, name := range []string{"alpha", "beta", "gamma"} {
		doJSON(t, "POST", ts2.URL+"/v1/live/"+name+"/flush", nil, http.StatusOK, nil)
		var sel liveSelection
		doJSON(t, "GET", ts2.URL+"/v1/live/"+name+"/selection", nil, http.StatusOK, &sel)
		if !idsEqual(sel.IDs, before[name]) {
			t.Fatalf("%s selection after faulted boot %v, want %v", name, sel.IDs, before[name])
		}
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosInteriorCorruptionQuarantine: a flipped bit in a WAL
// segment's interior is NOT silently truncated — the dataset
// quarantines loudly (sidecar on disk, 503 on every route) while the
// other datasets boot and serve untouched. The operator runbook
// (repair the file, POST unquarantine) brings it back bit-identical.
func TestChaosInteriorCorruptionQuarantine(t *testing.T) {
	e := newChaosEnv(t, "alpha", "beta", "gamma")
	for i := 0; i < 12; i++ {
		if st := e.insert("alpha"); st != "acked" {
			t.Fatalf("seed insert: %q", st)
		}
	}
	wantSel := e.selection("alpha")
	e.ts.Close() // crash

	segs, err := filepath.Glob(filepath.Join(e.dir, "alpha", "wal.*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments for alpha: %v (%v)", segs, err)
	}
	seg := segs[0]
	good, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)*2/5] ^= 0x40 // interior record, far from the torn-tail window
	if err := os.WriteFile(seg, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := New(
		WithDataDir(e.dir),
		WithRecoveryBackoff(5*time.Millisecond, 50*time.Millisecond, 4),
	)
	n, err := srv2.RestoreLive()
	if err != nil {
		t.Fatalf("RestoreLive: %v", err)
	}
	if n != 2 {
		t.Fatalf("RestoreLive = %d serving, want 2 (alpha quarantined)", n)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.Close()

	var info struct {
		State  string `json:"state"`
		Reason string `json:"reason"`
	}
	doJSON(t, "GET", ts2.URL+"/v1/live/alpha", nil, http.StatusOK, &info)
	if info.State != "quarantined" || info.Reason == "" {
		t.Fatalf("alpha info = %+v, want quarantined with a reason", info)
	}
	if _, err := os.Stat(filepath.Join(e.dir, "alpha", "QUARANTINE")); err != nil {
		t.Fatalf("quarantine sidecar missing: %v", err)
	}
	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/live/alpha/selection"},
		{"POST", "/v1/live/alpha/flush"},
		{"POST", "/v1/live/alpha/snapshot"},
	} {
		req, _ := http.NewRequest(probe.method, ts2.URL+probe.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s %s on quarantined dataset: status %d, want 503", probe.method, probe.path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s %s: 503 without Retry-After", probe.method, probe.path)
		}
	}
	// The healthy datasets are fully isolated from alpha's corruption.
	for _, name := range []string{"beta", "gamma"} {
		doJSON(t, "GET", ts2.URL+"/v1/live/"+name+"/selection", nil, http.StatusOK, nil)
	}

	// Unquarantine without repairing first: the supervisor re-scrubs,
	// finds the same corruption, and quarantines again.
	doJSON(t, "POST", ts2.URL+"/v1/live/alpha/unquarantine", nil, http.StatusOK, &info)
	if info.State != "quarantined" {
		t.Fatalf("unquarantine without repair settled at %q, want quarantined again", info.State)
	}

	// The runbook proper: restore the good bytes, then unquarantine.
	if err := os.WriteFile(seg, good, 0o644); err != nil {
		t.Fatal(err)
	}
	doJSON(t, "POST", ts2.URL+"/v1/live/alpha/unquarantine", nil, http.StatusOK, &info)
	if info.State != "ready" {
		t.Fatalf("unquarantine after repair settled at %q, want ready", info.State)
	}
	doJSON(t, "POST", ts2.URL+"/v1/live/alpha/flush", nil, http.StatusOK, nil)
	var sel liveSelection
	doJSON(t, "GET", ts2.URL+"/v1/live/alpha/selection", nil, http.StatusOK, &sel)
	if !idsEqual(sel.IDs, wantSel) {
		t.Fatalf("alpha selection after repair %v, want %v", sel.IDs, wantSel)
	}
}

// TestChaosRandomSweep: randomized rounds — each picks a victim and a
// fault kind, injects it mid-traffic, and requires the healthy
// datasets to serve with zero errors while the victim recovers to its
// acknowledged prefix. Seeded PCG: failures reproduce.
func TestChaosRandomSweep(t *testing.T) {
	names := []string{"alpha", "beta", "gamma"}
	e := newChaosEnv(t, names...)
	rng := rand.New(rand.NewPCG(42, 7))
	for round := 0; round < 4; round++ {
		victim := names[rng.IntN(len(names))]
		healthy := make([]string, 0, 2)
		for _, n := range names {
			if n != victim {
				healthy = append(healthy, n)
			}
		}
		var rule *faultio.Rule
		switch rng.IntN(3) {
		case 0:
			rule = &faultio.Rule{Op: faultio.OpWrite, PathContains: victim + "/wal.", Times: 1, Err: syscall.EIO}
		case 1:
			rule = &faultio.Rule{Op: faultio.OpSync, PathContains: victim + "/wal.", Times: 1}
		case 2:
			rule = &faultio.Rule{Op: faultio.OpWrite, PathContains: victim + "/wal.", Times: 1,
				Partial: 3 + rng.IntN(16), Err: syscall.EIO}
		}
		fired := e.fs.Fired()
		e.fs.AddRule(rule)
		stop := e.hammer(healthy...)
		sawFault := false
		for i := 0; i < 20 && !sawFault; i++ {
			e.insert(victim)
			sawFault = e.fs.Fired() > fired
		}
		if !sawFault {
			stop()
			t.Fatalf("round %d: fault %v never fired", round, rule)
		}
		e.waitReady(victim)
		e.verifyAckedPrefix(victim)
		stop()
		if t.Failed() {
			t.Fatalf("round %d (victim %s, fault %v): healthy datasets saw errors", round, victim, rule)
		}
	}
	for _, n := range names {
		e.verifyAckedPrefix(n)
	}
}

// TestChaosStaticCorruptionQuarantine: a flipped bit in one saved static
// dataset's static.discsnap quarantines that dataset alone at boot —
// sidecar on disk, 503 with Retry-After and the reason on its routes,
// the damaged file left as found — while another static dataset and a
// live one come back and answer 200 with their answers intact.
func TestChaosStaticCorruptionQuarantine(t *testing.T) {
	e := newChaosEnv(t, "alpha")
	before := map[string][]int{}
	for i, name := range []string{"north", "south"} {
		uploadPoints(t, e.ts, name, 150+50*i)
		var res result
		doJSON(t, "POST", e.ts.URL+"/v1/datasets/"+name+"/select", map[string]any{"radius": 0.15}, http.StatusCreated, &res)
		before[name] = res.IDs
		doJSON(t, "POST", e.ts.URL+"/v1/datasets/"+name+"/snapshot", nil, http.StatusCreated, nil)
	}
	wantAlpha := e.selection("alpha")
	e.ts.Close() // crash

	bad := filepath.Join(e.dir, "south", "static.discsnap")
	data, err := os.ReadFile(bad)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := New(WithDataDir(e.dir), WithRecoveryBackoff(5*time.Millisecond, 50*time.Millisecond, 4))
	defer srv2.Close()
	if n, err := srv2.RestoreLive(); err != nil || n != 2 {
		t.Fatalf("RestoreLive = (%d, %v), want (2, nil): south quarantined", n, err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	for _, probe := range []struct{ method, path string }{
		{"GET", "/v1/datasets/south"},
		{"POST", "/v1/datasets/south/select"},
		{"POST", "/v1/datasets/south/snapshot"},
	} {
		req, _ := http.NewRequest(probe.method, ts2.URL+probe.path, strings.NewReader(`{"radius": 0.15}`))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			State  string `json:"state"`
			Reason string `json:"reason"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s %s on the corrupt dataset: status %d (Retry-After %q), want 503 with Retry-After",
				probe.method, probe.path, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
		if body.State != "quarantined" || !strings.Contains(body.Reason, "static.discsnap") {
			t.Fatalf("%s %s: body %+v, want quarantined with the file in the reason", probe.method, probe.path, body)
		}
	}
	if _, err := os.Stat(filepath.Join(e.dir, "south", "QUARANTINE")); err != nil {
		t.Fatalf("quarantine sidecar missing: %v", err)
	}
	if after, err := os.ReadFile(bad); err != nil || !bytes.Equal(after, data) {
		t.Fatalf("quarantine changed the damaged file (err %v)", err)
	}

	var ready readyzBody
	doJSON(t, "GET", ts2.URL+"/readyz", nil, http.StatusOK, &ready)
	for name, want := range map[string]string{"south": "quarantined", "north": "ready", "alpha": "ready"} {
		if st := ready.Datasets[name].State; string(st) != want {
			t.Errorf("/readyz: %s is %q, want %q", name, st, want)
		}
	}
	var res result
	doJSON(t, "POST", ts2.URL+"/v1/datasets/north/select", map[string]any{"radius": 0.15}, http.StatusCreated, &res)
	if !slices.Equal(res.IDs, before["north"]) {
		t.Fatalf("north select after restart %v, want %v", res.IDs, before["north"])
	}
	doJSON(t, "POST", ts2.URL+"/v1/live/alpha/flush", nil, http.StatusOK, nil)
	var sel liveSelection
	doJSON(t, "GET", ts2.URL+"/v1/live/alpha/selection", nil, http.StatusOK, &sel)
	if !idsEqual(sel.IDs, wantAlpha) {
		t.Fatalf("alpha selection after restart %v, want %v", sel.IDs, wantAlpha)
	}
}
