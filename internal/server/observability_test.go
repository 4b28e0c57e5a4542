package server

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestMetricsEndpoint drives a few requests through the instrumented
// routes and checks that GET /metrics serves the Prometheus text format
// with request, pipeline-stage and durability series present.
func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	uploadPoints(t, ts, "met", 80)
	var sel map[string]any
	doJSON(t, "POST", ts.URL+"/v1/datasets/met/select", map[string]any{"radius": 0.2}, http.StatusCreated, &sel)
	doJSON(t, "GET", ts.URL+"/v1/datasets/unknown", nil, http.StatusNotFound, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE disc_http_requests_total counter",
		`disc_http_requests_total{route="/v1/datasets/{name}/select",method="POST",code="2xx"}`,
		`disc_http_requests_total{route="/v1/datasets/{name}",method="GET",code="4xx"}`,
		"# TYPE disc_http_request_seconds histogram",
		"# TYPE disc_http_inflight_requests gauge",
		"# TYPE disc_select_seconds histogram",
		"# TYPE disc_grid_build_seconds histogram",
		"# TYPE disc_grid_join_seconds histogram",
		"# TYPE disc_wal_appends_total counter",
		"# TYPE disc_snapshot_write_seconds histogram",
		"# TYPE disc_result_cache_entries gauge",
		"# TYPE disc_result_cache_ids gauge",
		"# TYPE disc_result_lookups_total counter",
		`disc_result_lookups_total{outcome="recomputed"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	// The select above must have recorded a 2xx on its route.
	var hit bool
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, `disc_http_requests_total{route="/v1/datasets/{name}/select",method="POST",code="2xx"}`) {
			if !strings.HasSuffix(line, " 0") {
				hit = true
			}
		}
	}
	if !hit {
		t.Error("select request did not increment its route counter")
	}
}

// TestReadyz pins the readiness life-cycle: ready from birth, 503 on
// probe AND on API traffic while SetReady(false), back to 200 after.
func TestReadyz(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	doJSON(t, "GET", ts.URL+"/readyz", nil, http.StatusOK, nil)

	srv.SetReady(false)
	var body map[string]any
	doJSON(t, "GET", ts.URL+"/readyz", nil, http.StatusServiceUnavailable, &body)
	if body["status"] != "recovering" {
		t.Fatalf("readyz body = %v", body)
	}
	// API traffic is refused while recovering; liveness still answers.
	resp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("API during recovery = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("recovering 503 must carry Retry-After")
	}
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, nil)

	srv.SetReady(true)
	doJSON(t, "GET", ts.URL+"/readyz", nil, http.StatusOK, nil)
	doJSON(t, "GET", ts.URL+"/v1/datasets", nil, http.StatusOK, nil)
}

// TestRequestID: every API response carries a distinct X-Request-Id.
func TestRequestID(t *testing.T) {
	ts := newTestServer(t)
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/v1/datasets")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get("X-Request-Id")
		if id == "" {
			t.Fatal("missing X-Request-Id")
		}
		if seen[id] {
			t.Fatalf("request id %q repeated", id)
		}
		seen[id] = true
	}
}

// TestPanicLogsStructured: a handler panic is recovered into a 500 and
// reported through the configured slog logger with the structured
// fields (method, route, request id, stack), not a bare log.Printf.
func TestPanicLogsStructured(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	s := New(WithLogger(logger))

	boom := http.HandlerFunc(func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	h := s.requestID(s.recoverPanics(boom))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/datasets", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	logLine := buf.String()
	for _, want := range []string{`"msg":"panic serving request"`, `"method":"GET"`, `"route":"/v1/datasets"`, `"request_id":"r1"`, `"stack":`, "kaboom"} {
		if !strings.Contains(logLine, want) {
			t.Errorf("panic log missing %s in: %s", want, logLine)
		}
	}
}

// TestBodyCapCounter: an oversized body still maps to 400 (the pinned
// crash_test contract) and increments the rejection counter.
func TestBodyCapCounter(t *testing.T) {
	srv := New(WithMaxBodyBytes(64))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	before := metBodyCap.Value()
	// A valid JSON prefix, so the decoder streams past the 64-byte cap
	// and surfaces the MaxBytesError (a syntax error would fail sooner).
	big := []byte(`{"name":"` + strings.Repeat("a", 4096) + `"}`)
	resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body = %d, want 400", resp.StatusCode)
	}
	if metBodyCap.Value() != before+1 {
		t.Fatalf("body-cap counter %d, want %d", metBodyCap.Value(), before+1)
	}
}
