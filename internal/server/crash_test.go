package server

// Crash-restart and hardening tests: a durable live maintainer must
// resume with zero acknowledged-update loss after the process dies
// without any shutdown courtesy (the old server object is simply
// abandoned, handles and all — the closest a test gets to SIGKILL),
// and the middleware chain must shed load, bound bodies, time out
// stuck requests, and absorb handler panics.

import (
	"bufio"
	"encoding/json"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	disc "github.com/discdiversity/disc"
)

// TestLiveCrashRestart drives the full durability loop over HTTP:
// create a durable maintainer, mutate it, "crash" (abandon the server
// without Close), boot a fresh server over the same directory,
// RestoreLive, and require the identical selection plus continued
// operation — including across a checkpoint.
func TestLiveCrashRestart(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewPCG(9, 2))

	srv := New(WithDataDir(dir)) // fsync defaults to always
	ts := httptest.NewServer(srv.Handler())
	doJSON(t, "POST", ts.URL+"/v1/live",
		map[string]any{"name": "feed", "radius": 0.2}, http.StatusCreated, nil)
	for i := 0; i < 30; i++ {
		doJSON(t, "POST", ts.URL+"/v1/live/feed/insert",
			map[string]any{"point": []float64{rng.Float64(), rng.Float64()}}, http.StatusCreated, nil)
	}
	for _, id := range []int{3, 11, 19} {
		doJSON(t, "POST", ts.URL+"/v1/live/feed/delete",
			map[string]any{"id": id}, http.StatusOK, nil)
	}
	doJSON(t, "POST", ts.URL+"/v1/live/feed/flush", nil, http.StatusOK, nil)
	var before liveSelection
	doJSON(t, "GET", ts.URL+"/v1/live/feed/selection", nil, http.StatusOK, &before)
	if before.Size == 0 {
		t.Fatal("no selection before the crash")
	}
	// Crash: stop routing requests, abandon srv un-Closed.
	ts.Close()

	srv2 := New(WithDataDir(dir))
	n, err := srv2.RestoreLive()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d maintainers, want 1", n)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	var after liveSelection
	doJSON(t, "GET", ts2.URL+"/v1/live/feed/selection", nil, http.StatusOK, &after)
	if len(after.IDs) != len(before.IDs) {
		t.Fatalf("selection after restart %v, want %v", after.IDs, before.IDs)
	}
	for i := range after.IDs {
		if after.IDs[i] != before.IDs[i] {
			t.Fatalf("selection after restart %v, want %v", after.IDs, before.IDs)
		}
	}
	var info struct {
		Live int `json:"live"`
	}
	doJSON(t, "GET", ts2.URL+"/v1/live/feed", nil, http.StatusOK, &info)
	if info.Live != 27 {
		t.Fatalf("live count after restart = %d, want 27", info.Live)
	}

	// Checkpoint, mutate, crash again: recovery must replay only the
	// post-checkpoint suffix on top of the compacted snapshot.
	doJSON(t, "POST", ts2.URL+"/v1/live/feed/snapshot", nil, http.StatusCreated, nil)
	doJSON(t, "POST", ts2.URL+"/v1/live/feed/insert",
		map[string]any{"point": []float64{0.5, 0.5}, "flush": true}, http.StatusCreated, nil)
	var mid liveSelection
	doJSON(t, "GET", ts2.URL+"/v1/live/feed/selection", nil, http.StatusOK, &mid)
	ts2.Close()

	srv3 := New(WithDataDir(dir))
	if _, err := srv3.RestoreLive(); err != nil {
		t.Fatal(err)
	}
	ts3 := httptest.NewServer(srv3.Handler())
	defer ts3.Close()
	var final liveSelection
	doJSON(t, "GET", ts3.URL+"/v1/live/feed/selection", nil, http.StatusOK, &final)
	// The checkpoint compacted tombstones away, so recovered ids are the
	// dense ranks of the pre-crash ids among the surviving points (the
	// running server kept handing out the sparse handles; recovery
	// speaks the compacted log-id space).
	rank := func(id int) int {
		r := id
		for _, d := range []int{3, 11, 19} {
			if d < id {
				r--
			}
		}
		return r
	}
	if len(final.IDs) != len(mid.IDs) {
		t.Fatalf("selection after checkpointed restart %v, want rank-mapped %v", final.IDs, mid.IDs)
	}
	for i := range final.IDs {
		if final.IDs[i] != rank(mid.IDs[i]) {
			t.Fatalf("selection after checkpointed restart %v, want rank-mapped %v", final.IDs, mid.IDs)
		}
	}
	var info3 struct {
		Live int `json:"live"`
	}
	doJSON(t, "GET", ts3.URL+"/v1/live/feed", nil, http.StatusOK, &info3)
	if info3.Live != 28 {
		t.Fatalf("live count after checkpointed restart = %d, want 28", info3.Live)
	}
	if err := srv3.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLiveNonLpCrashRestart runs the durability loop for metrics the
// grid cannot serve: durable hamming and cosine maintainers are
// mutated, checkpointed, mutated again (a WAL tail), and abandoned. A
// fresh server over the same directory must recover, for each, the
// selection an Updater reaches replaying the same ops in the recovered
// id space: the checkpoint's live points seeded densely, then the tail.
func TestLiveNonLpCrashRestart(t *testing.T) {
	type op struct {
		p  []float64 // insert p, or (p == nil) delete the handle id
		id int
	}
	cases := []struct {
		metric string
		r      float64
		point  func(*rand.Rand) []float64
	}{
		{"hamming", 2, func(rng *rand.Rand) []float64 {
			p := make([]float64, 10)
			for i := range p {
				p[i] = float64(rng.IntN(2))
			}
			return p
		}},
		{"cosine", 0.02, func(rng *rand.Rand) []float64 {
			return []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		}},
	}
	dir := t.TempDir()
	rng := rand.New(rand.NewPCG(21, 5))
	srv := New(WithDataDir(dir))
	ts := httptest.NewServer(srv.Handler())
	want := make(map[string][]int)
	for _, tc := range cases {
		doJSON(t, "POST", ts.URL+"/v1/live",
			map[string]any{"name": tc.metric, "radius": tc.r, "metric": tc.metric}, http.StatusCreated, nil)
		// pts[h] is the point behind server handle h; alive tracks it.
		var pts [][]float64
		var alive []bool
		mutate := func(n int) []op {
			var ops []op
			for i := 0; i < n; i++ {
				if len(pts) > 0 && rng.Float64() < 0.3 {
					h := rng.IntN(len(pts))
					if !alive[h] {
						continue
					}
					doJSON(t, "POST", ts.URL+"/v1/live/"+tc.metric+"/delete",
						map[string]any{"id": h}, http.StatusOK, nil)
					alive[h] = false
					ops = append(ops, op{id: h})
					continue
				}
				p := tc.point(rng)
				var body struct {
					ID int `json:"id"`
				}
				doJSON(t, "POST", ts.URL+"/v1/live/"+tc.metric+"/insert",
					map[string]any{"point": p}, http.StatusCreated, &body)
				if body.ID != len(pts) {
					t.Fatalf("%s: insert got handle %d, want %d", tc.metric, body.ID, len(pts))
				}
				pts, alive = append(pts, p), append(alive, true)
				ops = append(ops, op{p: p})
			}
			return ops
		}
		mutate(150)
		doJSON(t, "POST", ts.URL+"/v1/live/"+tc.metric+"/snapshot", nil, http.StatusCreated, nil)
		// The replay seeds the checkpoint's live points densely, in
		// handle order: that is the id space recovery speaks.
		var seed []disc.Point
		replayID := make(map[int]int)
		for h, p := range pts {
			if alive[h] {
				replayID[h] = len(seed)
				seed = append(seed, disc.Point(p))
			}
		}
		checkpointed := len(pts)
		tail := mutate(60)
		doJSON(t, "POST", ts.URL+"/v1/live/"+tc.metric+"/flush", nil, http.StatusOK, nil)

		m, err := disc.MetricByName(tc.metric)
		if err != nil {
			t.Fatal(err)
		}
		u, err := disc.NewUpdater(seed, tc.r, disc.WithMetric(m))
		if err != nil {
			t.Fatal(err)
		}
		next := len(seed)
		for h := checkpointed; h < len(pts); h++ {
			replayID[h] = next
			next++
		}
		for _, o := range tail {
			if o.p != nil {
				if _, err := u.Insert(disc.Point(o.p)); err != nil {
					t.Fatal(err)
				}
			} else if err := u.Delete(replayID[o.id]); err != nil {
				t.Fatal(err)
			}
		}
		u.Flush()
		want[tc.metric] = u.Selection()
		if len(want[tc.metric]) == 0 {
			t.Fatalf("%s: replay selects nothing", tc.metric)
		}

		// The running server answers the same selection in handle space.
		var before liveSelection
		doJSON(t, "GET", ts.URL+"/v1/live/"+tc.metric+"/selection", nil, http.StatusOK, &before)
		mapped := make([]int, len(before.IDs))
		for i, h := range before.IDs {
			mapped[i] = replayID[h]
		}
		if !slices.Equal(mapped, want[tc.metric]) {
			t.Fatalf("%s: served selection %v, replay %v", tc.metric, mapped, want[tc.metric])
		}
	}
	// Crash: stop routing requests, abandon srv un-Closed.
	ts.Close()

	srv2 := New(WithDataDir(dir))
	if n, err := srv2.RestoreLive(); err != nil || n != len(cases) {
		t.Fatalf("restored %d maintainers (err %v), want %d", n, err, len(cases))
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	for _, tc := range cases {
		var after liveSelection
		doJSON(t, "GET", ts2.URL+"/v1/live/"+tc.metric+"/selection", nil, http.StatusOK, &after)
		if !slices.Equal(after.IDs, want[tc.metric]) {
			t.Fatalf("%s: recovered selection %v, replay %v", tc.metric, after.IDs, want[tc.metric])
		}
	}
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCreateRefusesLeftoverState: creating a maintainer whose
// name matches on-disk durable state must 409 rather than silently
// resume (or worse, seed on top of) a previous life's data.
func TestDurableCreateRefusesLeftoverState(t *testing.T) {
	dir := t.TempDir()
	srv := New(WithDataDir(dir))
	ts := httptest.NewServer(srv.Handler())
	doJSON(t, "POST", ts.URL+"/v1/live",
		map[string]any{"name": "feed", "radius": 0.2, "points": [][]float64{{0.1, 0.1}}},
		http.StatusCreated, nil)
	ts.Close()

	srv2 := New(WithDataDir(dir)) // boots WITHOUT RestoreLive
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	doJSON(t, "POST", ts2.URL+"/v1/live",
		map[string]any{"name": "feed", "radius": 0.2}, http.StatusConflict, nil)
}

// TestMemoryOnlyCheckpointRefused: the checkpoint endpoint is a
// durability feature; without a data directory it must explain itself.
func TestMemoryOnlyCheckpointRefused(t *testing.T) {
	ts := newTestServer(t)
	doJSON(t, "POST", ts.URL+"/v1/live",
		map[string]any{"name": "feed", "radius": 0.2, "points": [][]float64{{0.1, 0.1}}},
		http.StatusCreated, nil)
	doJSON(t, "POST", ts.URL+"/v1/live/feed/snapshot", nil, http.StatusBadRequest, nil)
}

// TestAdmissionControl: with one admission slot held by a request
// whose body never arrives, the next request is shed with 503 and a
// Retry-After header, /healthz still answers, and releasing the slot
// restores service.
func TestAdmissionControl(t *testing.T) {
	srv := New(WithMaxInflight(1))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Admitted requests raise the in-flight gauge; shed ones never do.
	base := metInflight.Value()
	pr, pw := io.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Blocks inside the handler's JSON decode until pw closes.
		resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", pr)
		if err == nil {
			resp.Body.Close()
		}
	}()
	// Wait for the blocked request to actually occupy the slot. Watch
	// the gauge rather than probe with requests: a probe holding the one
	// slot as the blocked request arrives would get that request shed.
	deadline := time.Now().Add(5 * time.Second)
	for metInflight.Value() <= base {
		if time.Now().After(deadline) {
			t.Fatal("server never reached capacity")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request at capacity = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	// Liveness bypasses admission.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz at capacity = %d, want 200", resp.StatusCode)
	}
	pw.CloseWithError(io.ErrClosedPipe)
	wg.Wait()
	// Slot released: requests flow again.
	deadline = time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/datasets")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never recovered after shedding")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRequestTimeout: a request whose body stalls past the per-request
// deadline errors out through the handler's decode path instead of
// pinning a goroutine forever — the client sees a 4xx, and the next
// request is served normally.
func TestRequestTimeout(t *testing.T) {
	srv := New(WithRequestTimeout(50 * time.Millisecond))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Raw TCP so the request can stall mid-body: promise 4096 bytes,
	// send a fragment, never finish. (http.Client can't model this —
	// its transport waits for the request body to drain before
	// surfacing the response.)
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn,
		"POST /v1/datasets HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n{\"name\":"); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no response to a stalled request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode < 400 || resp.StatusCode >= 500 {
		t.Fatalf("stuck request = %d, want a 4xx decode failure", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stuck request held for %v; the deadline did not fire", elapsed)
	}
	// The process is healthy: the next request is served normally.
	doJSON(t, "GET", ts.URL+"/v1/datasets", nil, http.StatusOK, nil)
}

// TestBodyLimit: mutating requests over the cap fail cleanly instead
// of buffering an arbitrarily large upload.
func TestBodyLimit(t *testing.T) {
	srv := New(WithMaxBodyBytes(1024))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	big := map[string]any{"name": "d", "points": make([][]float64, 0, 1024)}
	pts := big["points"].([][]float64)
	for i := 0; i < 1024; i++ {
		pts = append(pts, []float64{float64(i), float64(i)})
	}
	big["points"] = pts
	body, err := json.Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body = %d, want 400", resp.StatusCode)
	}
	// Within the cap still works.
	doJSON(t, "POST", ts.URL+"/v1/datasets",
		map[string]any{"name": "d", "points": [][]float64{{0.1, 0.2}, {0.8, 0.9}}},
		http.StatusCreated, nil)
}

// TestPanicRecovery: a panicking handler yields a 500 on that request
// and the process keeps serving. The panic is provoked through the
// real chain by registering a panicking route on the inner mux the
// same way Handler does.
func TestPanicRecovery(t *testing.T) {
	srv := New()
	api := http.NewServeMux()
	api.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	api.HandleFunc("GET /v1/datasets", srv.handleListDatasets)
	root := http.NewServeMux()
	root.Handle("/", srv.chain(api))
	ts := httptest.NewServer(root)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler = %d, want 500", resp.StatusCode)
	}
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("panic response is not the JSON error shape: %v", err)
	}
	// The process survived: the next request is served normally.
	doJSON(t, "GET", ts.URL+"/v1/datasets", nil, http.StatusOK, nil)
}

// TestLiveFsyncModesOverHTTP exercises the durable lifecycle under the
// two relaxed fsync policies too — the recovery path is identical, the
// policies only trade the crash window.
func TestLiveFsyncModesOverHTTP(t *testing.T) {
	for _, mode := range []disc.FsyncPolicy{disc.FsyncInterval, disc.FsyncNone} {
		dir := t.TempDir()
		srv := New(WithDataDir(dir), WithLiveFsync(mode), WithLiveFsyncInterval(time.Millisecond))
		ts := httptest.NewServer(srv.Handler())
		doJSON(t, "POST", ts.URL+"/v1/live",
			map[string]any{"name": "feed", "radius": 0.2, "points": [][]float64{{0.1, 0.1}, {0.9, 0.9}}},
			http.StatusCreated, nil)
		doJSON(t, "POST", ts.URL+"/v1/live/feed/insert",
			map[string]any{"point": []float64{0.5, 0.5}, "flush": true}, http.StatusCreated, nil)
		// Orderly close: relaxed fsync only risks the tail on a CRASH;
		// Close syncs, so a restart must still see everything.
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		ts.Close()

		srv2 := New(WithDataDir(dir), WithLiveFsync(mode))
		if n, err := srv2.RestoreLive(); err != nil || n != 1 {
			t.Fatalf("restore under %v: n=%d err=%v", mode, n, err)
		}
		ts2 := httptest.NewServer(srv2.Handler())
		var info struct {
			Live int `json:"live"`
		}
		doJSON(t, "GET", ts2.URL+"/v1/live/feed", nil, http.StatusOK, &info)
		if info.Live != 3 {
			t.Fatalf("live after close/restore under %v = %d, want 3", mode, info.Live)
		}
		ts2.Close()
		srv2.Close()
	}
}
