package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// short runs one workload for a fraction of a second of nominal time.
func short(t *testing.T, workload string, trace bool) (*result, *report) {
	t.Helper()
	cfg := config{workload: workload, seed: 11, seconds: 0.5, trace: trace, workdir: t.TempDir()}
	res, rep, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s: correct=%v failed=%d of %d", workload, res.Correct, res.Failed, res.Attempted)
	}
	return res, rep
}

// TestWorkloads runs each workload traced, twice at one seed, and
// checks what the benchmark promises about its own output:
//
//   - the count metrics repeat exactly, so a later change may rest a
//     claim on them;
//   - latency rows exist for exactly the op kinds the workload issues,
//     each counts exactly the ops of its kind, and no two rows carry
//     the same values;
//   - per op kind, the layers plus the residual add up to the client
//     latency, and the traced run recorded spans.
func TestWorkloads(t *testing.T) {
	counts := []string{
		"mtree.accesses_per_op", "wal.fsyncs_per_op", "wal.appends_per_op", "wal.replayed_per_op",
		"core.repaired_components_per_op", "server.results_stored", "grid.join_edges_per_op",
		"manager.recoveries_per_op", "manager.retries",
	}
	detailCounts := map[string]bool{
		"mtree.accesses_per_select": true, "mtree.accesses_per_zoom_in": true, "mtree.accesses_per_zoom_out": true,
		"wal.fsyncs_per_write": true, "wal.appends_per_write": true, "core.repaired_components_per_write": true,
		"wal.replayed_records_per_recover": true, "manager.recoveries_per_recover": true, "server.results_stored": true,
	}
	sessions := opsFor(0.5, exploreRate)
	writes := opsFor(0.5, liveWriteRate)
	for _, tc := range []struct {
		workload string
		n        map[string]int // ops per phase, by kind
	}{
		{"explore", map[string]int{"select": sessions, "zoom_in": sessions, "zoom_out": sessions}},
		{"live", map[string]int{"write": writes, "read": writes / liveWritesPerRead}},
		{"restart", map[string]int{"recover": opsFor(0.5, restartRate)}},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			res, a := short(t, tc.workload, true)
			_, b := short(t, tc.workload, true)

			for _, name := range counts {
				if a.PerLayer[name] != b.PerLayer[name] {
					t.Errorf("%s: %v then %v", name, a.PerLayer[name].Value, b.PerLayer[name].Value)
				}
			}
			seen := 0
			for i, r := range a.Detail {
				if detailCounts[r.Name] {
					seen++
					if b.Detail[i] != r {
						t.Errorf("%s: %v then %v", r.Name, r.Value, b.Detail[i].Value)
					}
				}
			}
			if seen == 0 {
				t.Error("no detail counts reported")
			}

			if len(a.PerKind) != 5*len(tc.n) {
				t.Fatalf("per-kind rows %v, want rows for %v only", a.PerKind, tc.n)
			}
			total := 0
			values := map[[4]float64]string{}
			for kind, n := range tc.n {
				total += n
				if got := a.PerKind[kind+"_n"].Value; got != float64(n) {
					t.Errorf("%s: %v samples, want %d", kind, got, n)
				}
				v := [4]float64{a.PerKind[kind+"_p50_ms"].Value, a.PerKind[kind+"_p90_ms"].Value,
					a.PerKind[kind+"_cpu_p50_ms"].Value, a.PerKind[kind+"_cpu_p90_ms"].Value}
				if other, dup := values[v]; dup {
					t.Errorf("%s and %s report identical latencies %v", kind, other, v)
				}
				values[v] = kind
			}
			if res.Attempted != 2*total {
				t.Errorf("attempted %d, want %d over the two phases", res.Attempted, 2*total)
			}
			for _, name := range []string{"setup_s", "ops_per_cpu_s", "ok_pct", "heap_live_mb", "cpu_p50_ms", "cpu_p90_ms"} {
				if m, ok := a.EndToEnd[name]; !ok || m.Value <= 0 {
					t.Errorf("end-to-end %s = %v", name, m)
				}
			}
			if len(a.EndToEnd) != 6 {
				t.Errorf("end-to-end rows %v, want 6", a.EndToEnd)
			}

			if len(a.Layers) == 0 || len(a.SpanSelf) == 0 {
				t.Fatalf("layers %v spans %v", a.Layers, a.SpanSelf)
			}
			for _, l := range a.Layers {
				sum := 0.0
				for _, v := range l.Layers {
					sum += v
				}
				if d := sum - l.ClientMs; d > 1e-6*l.ClientMs || d < -1e-6*l.ClientMs {
					t.Errorf("%s: layers sum to %v ms, client %v ms", l.Kind, sum, l.ClientMs)
				}
			}
			if _, ok := a.PerLayer["trace.overhead_pct"]; !ok {
				t.Error("no trace.overhead_pct")
			}
		})
	}
}

// corrupting serves h but rewrites the JSON answer of every request
// whose path ends in suffix.
func corrupting(h http.Handler, suffix string, mutate func(map[string]any)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if strings.HasSuffix(r.URL.Path, suffix) {
			var m map[string]any
			if json.Unmarshal(body, &m) == nil {
				mutate(m)
				body, _ = json.Marshal(m)
			}
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// TestOracleRejectsCorruptedAnswers: a 2xx carrying a wrong answer
// counts as a failure, for select ids and for live write counts.
func TestOracleRejectsCorruptedAnswers(t *testing.T) {
	b, err := newBench(config{seed: 11, seconds: 0.5, workdir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()

	t.Run("explore", func(t *testing.T) {
		e := newExplore(b, "").(*explore)
		if err := e.prepare(); err != nil {
			t.Fatal(err)
		}
		if err := e.setup(0); err != nil {
			t.Fatal(err)
		}
		defer e.teardown()
		b.front.set(corrupting(e.srv.Handler(), "/select", func(m map[string]any) {
			ids := m["ids"].([]any)
			ids[len(ids)-1] = ids[len(ids)-1].(float64) + 1
		}))
		p := newPhase(b, false)
		if err := e.run(p); err != nil {
			t.Fatal(err)
		}
		if p.failed != p.attempted {
			t.Fatalf("%d of %d ops failed; every select was corrupted", p.failed, p.attempted)
		}
	})

	t.Run("live", func(t *testing.T) {
		l := newLive(b, t.TempDir()).(*live)
		if err := l.prepare(); err != nil {
			t.Fatal(err)
		}
		if err := l.setup(0); err != nil {
			t.Fatal(err)
		}
		defer l.teardown()
		b.front.set(corrupting(l.srv.Handler(), "/insert", func(m map[string]any) {
			m["live"] = m["live"].(float64) + 1
		}))
		p := newPhase(b, false)
		if err := l.run(p); err != nil {
			t.Fatal(err)
		}
		if p.failed == 0 {
			t.Fatal("corrupted insert answers were accepted")
		}
	})
}
