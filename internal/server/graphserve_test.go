package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	disc "github.com/discdiversity/disc"
	"github.com/discdiversity/disc/internal/core"
	"github.com/discdiversity/disc/internal/object"
)

// TestServedAlgorithmsVerify: a dataset created over HTTP is served by
// the coverage graph, and every algorithm value answers a subset that
// passes the paper's checks by direct distance computation —
// independence and coverage for the DisC algorithms, coverage for the
// r-C ones. Each DisC answer is also zoomed in and out, and the zoomed
// answers must verify too. Euclidean exercises the grid substrate,
// cosine the flat join.
func TestServedAlgorithmsVerify(t *testing.T) {
	const r = 0.12
	for _, metricName := range []string{"euclidean", "cosine"} {
		srv := New()
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		pts := clusteredCoords(t, 300, 31)
		doJSON(t, "POST", ts.URL+"/v1/datasets",
			map[string]any{"name": "demo", "metric": metricName, "points": pts},
			http.StatusCreated, nil)
		if ix := indexOf(t, srv, "demo"); ix != disc.IndexCoverageGraph {
			t.Fatalf("%s: served dataset runs on %v, want the coverage graph", metricName, ix)
		}
		m, err := disc.MetricByName(metricName)
		if err != nil {
			t.Fatal(err)
		}
		objs := make([]object.Point, len(pts))
		for i, p := range pts {
			objs[i] = object.Point(p)
		}
		check := func(what string, res result, coverageOnly bool) {
			t.Helper()
			var err error
			if coverageOnly {
				err = core.CheckCoverage(objs, m, res.IDs, res.Radius)
			} else {
				err = core.CheckDisC(objs, m, res.IDs, res.Radius)
			}
			if err != nil {
				t.Errorf("%s/%s: %v", metricName, what, err)
			}
		}
		for _, alg := range []string{"greedy", "basic", "white-greedy", "lazy-grey", "lazy-white", "coverage", "fast-coverage"} {
			var res result
			doJSON(t, "POST", ts.URL+"/v1/datasets/demo/select",
				map[string]any{"radius": r, "algorithm": alg}, http.StatusCreated, &res)
			coverageOnly := alg == "coverage" || alg == "fast-coverage"
			check(alg, res, coverageOnly)
			if coverageOnly {
				continue
			}
			for _, zr := range []float64{r / 2, 2 * r} {
				var z result
				doJSON(t, "POST", ts.URL+"/v1/results/"+res.ID+"/zoom",
					map[string]any{"radius": zr}, http.StatusCreated, &z)
				check(alg+" zoomed", z, false)
			}
		}
	}
}

// clusteredCoords returns n seeded clustered 2-d points as raw
// coordinates, the form a create request carries.
func clusteredCoords(t *testing.T, n int, seed uint64) [][]float64 {
	t.Helper()
	ds, err := disc.ClusteredDataset(n, 2, 5, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, n)
	for i, p := range ds.Points {
		out[i] = p
	}
	return out
}

// TestServedDenseRadiusBounded: a select whose radius covers every pair
// of a 4,000-point dataset would need a 16M-entry coverage graph (256
// MiB of CSR alone). The server must answer it, and its zooms, while
// allocating a small fraction of that, and the answers must verify.
func TestServedDenseRadiusBounded(t *testing.T) {
	const n, r = 4000, 2.0
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	ds, err := disc.UniformDataset(n, 2, 17)
	if err != nil {
		t.Fatal(err)
	}
	doJSON(t, "POST", ts.URL+"/v1/datasets",
		map[string]any{"name": "demo", "points": ds.Points}, http.StatusCreated, nil)
	objs := make([]object.Point, n)
	for i, p := range ds.Points {
		objs[i] = object.Point(p)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var sel, zin, zout result
	doJSON(t, "POST", ts.URL+"/v1/datasets/demo/select", map[string]any{"radius": r}, http.StatusCreated, &sel)
	doJSON(t, "POST", ts.URL+"/v1/results/"+sel.ID+"/zoom", map[string]any{"radius": r / 2}, http.StatusCreated, &zin)
	doJSON(t, "POST", ts.URL+"/v1/results/"+sel.ID+"/zoom", map[string]any{"radius": 2 * r}, http.StatusCreated, &zout)
	runtime.ReadMemStats(&after)
	for _, res := range []result{sel, zin, zout} {
		if err := core.CheckDisC(objs, disc.Euclidean(), res.IDs, res.Radius); err != nil {
			t.Errorf("r=%g: %v", res.Radius, err)
		}
	}
	const graphBytes = n * n * 16
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > graphBytes/4 {
		t.Fatalf("dense select and zooms allocated %d MiB, want under %d MiB (a quarter of the graph's CSR)", alloc>>20, graphBytes/4>>20)
	}
}

// TestServedSnapshotRoundTrip: a graph-backed dataset snapshotted before
// any select (dataset only) and after a select at r (dataset plus the
// coverage-graph CSR at r) must come back, in fresh servers restarted
// on a home holding that file, onto the coverage graph and answer
// select, zoom-in and zoom-out with ids identical to the original
// server's.
func TestServedSnapshotRoundTrip(t *testing.T) {
	const r = 0.08
	srv := New(WithDataDir(t.TempDir()))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	uploadPoints(t, ts, "demo", 400)

	snapshot := func() []byte {
		t.Helper()
		var saved snapshotBody
		doJSON(t, "POST", ts.URL+"/v1/datasets/demo/snapshot", nil, http.StatusCreated, &saved)
		b, err := os.ReadFile(saved.Path)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(b)) != saved.Bytes {
			t.Fatalf("snapshot reports %d bytes, file has %d", saved.Bytes, len(b))
		}
		return b
	}
	cold := snapshot()
	want := exploreIDs(t, ts.URL, r)
	warm := snapshot()
	if len(warm) <= len(cold) {
		t.Fatalf("snapshot after a select is %d bytes, not larger than the dataset-only %d", len(warm), len(cold))
	}

	for name, file := range map[string][]byte{"before-select": cold, "after-select": warm} {
		fresh, furl := restoreStatic(t, "demo", file)
		if ix := indexOf(t, fresh, "demo"); ix != disc.IndexCoverageGraph {
			t.Fatalf("%s: restored dataset runs on %v, want the index its file records", name, ix)
		}
		got := exploreIDs(t, furl, r)
		for i, step := range []string{"select", "zoom-in", "zoom-out"} {
			if !slices.Equal(got[i], want[i]) {
				t.Errorf("%s: %s ids differ from the original server's", name, step)
			}
		}
	}
}

// TestRestoredStaticKeepsLabels: a labelled dataset uploaded over the
// API, saved, and recovered by a server restarted on the same data
// directory answers a select with the same body — ids and labels.
func TestRestoredStaticKeepsLabels(t *testing.T) {
	const r = 0.1
	dir := t.TempDir()
	srv := New(WithDataDir(dir))
	ts := httptest.NewServer(srv.Handler())
	uploadPoints(t, ts, "demo", 300)
	var want result
	doJSON(t, "POST", ts.URL+"/v1/datasets/demo/select", map[string]any{"radius": r}, http.StatusCreated, &want)
	doJSON(t, "POST", ts.URL+"/v1/datasets/demo/snapshot", nil, http.StatusCreated, nil)
	ts.Close()
	srv.Close()

	srv2 := New(WithDataDir(dir))
	t.Cleanup(func() { srv2.Close() })
	if n, err := srv2.RestoreLive(); err != nil || n != 1 {
		t.Fatalf("RestoreLive = (%d, %v), want (1, nil)", n, err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(ts2.Close)
	var got result
	doJSON(t, "POST", ts2.URL+"/v1/datasets/demo/select", map[string]any{"radius": r}, http.StatusCreated, &got)
	if len(want.Labels) != want.Size || want.Labels[0] == "" {
		t.Fatalf("labels missing before the restart: %v", want.Labels)
	}
	if !slices.Equal(got.IDs, want.IDs) || !slices.Equal(got.Labels, want.Labels) {
		t.Fatalf("after the restart select answers ids %v labels %v, want %v %v", got.IDs, got.Labels, want.IDs, want.Labels)
	}
}

// TestRestoredStaticKeepsRecordedIndex: a snapshot written by a default
// (M-tree) diversifier and placed in a home as static.discsnap stays on
// the M-tree when a server recovers it, and its greedy select still
// answers the library's ids.
func TestRestoredStaticKeepsRecordedIndex(t *testing.T) {
	const r = 0.1
	ds, err := disc.ClusteredDataset(300, 2, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	d, err := disc.New(ds.Points)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := d.Select(r)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	srv, url := restoreStatic(t, "paper", buf.Bytes())
	if ix := indexOf(t, srv, "paper"); ix != disc.IndexMTree {
		t.Fatalf("restored dataset runs on %v, want the M-tree its file records", ix)
	}
	var res result
	doJSON(t, "POST", url+"/v1/datasets/paper/select",
		map[string]any{"radius": r}, http.StatusCreated, &res)
	if !slices.Equal(res.IDs, lib.SortedIDs()) {
		t.Fatal("served select on the restored M-tree differs from the library's")
	}
}

// restoreStatic writes file as DIR/name/static.discsnap in a fresh data
// directory and returns a server recovered from it, and its URL.
func restoreStatic(t *testing.T, name string, file []byte) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, name), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name, "static.discsnap"), file, 0o644); err != nil {
		t.Fatal(err)
	}
	srv := New(WithDataDir(dir))
	t.Cleanup(func() { srv.Close() })
	if n, err := srv.RestoreLive(); err != nil || n != 1 {
		t.Fatalf("RestoreLive = (%d, %v), want (1, nil)", n, err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

// indexOf returns the index the static dataset name runs on.
func indexOf(t *testing.T, srv *Server, name string) disc.Index {
	t.Helper()
	d, err := srv.mgr.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	st, err := d.Static()
	if err != nil {
		t.Fatal(err)
	}
	return st.Diversifier().Indexed()
}

// exploreIDs runs the explore interaction against dataset "demo" at base
// URL url: select at r, then zoom that result to r/2 and to 2r. It
// returns the three id lists.
func exploreIDs(t *testing.T, url string, r float64) [3][]int {
	t.Helper()
	var sel, zin, zout result
	doJSON(t, "POST", url+"/v1/datasets/demo/select", map[string]any{"radius": r}, http.StatusCreated, &sel)
	doJSON(t, "POST", url+"/v1/results/"+sel.ID+"/zoom", map[string]any{"radius": r / 2}, http.StatusCreated, &zin)
	doJSON(t, "POST", url+"/v1/results/"+sel.ID+"/zoom", map[string]any{"radius": 2 * r}, http.StatusCreated, &zout)
	return [3][]int{sel.IDs, zin.IDs, zout.IDs}
}

// TestServedConcurrentStaticAndLive: concurrent clients select, zoom
// and local-zoom on two static datasets while others insert into a live
// one. Every static answer equals a default diversifier's ids (a local
// zoom's as a set: its order follows the engine), and the live
// selection equals the replay of the acknowledged inserts in id order.
// Static calls reach each dataset's Diversifier with no lock around
// them, so under -race this pins the Diversifier's own synchronisation
// (the engine pick and the coverage graph's view cache) and the result
// registry's lock.
func TestServedConcurrentStaticAndLive(t *testing.T) {
	const n, r, rounds = 300, 0.1, 3
	ts := newTestServer(t)
	type answers struct {
		sel, zin, zout, local []int
		center                int
	}
	names := []string{"north", "south"}
	want := map[string]answers{}
	for i, name := range names {
		coords := clusteredCoords(t, n, uint64(40+i))
		doJSON(t, "POST", ts.URL+"/v1/datasets", map[string]any{"name": name, "points": coords}, http.StatusCreated, nil)
		pts := make([]disc.Point, n)
		for j, c := range coords {
			pts[j] = c
		}
		div, err := disc.New(pts)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := div.Select(r)
		if err != nil {
			t.Fatal(err)
		}
		zin, err := div.ZoomIn(sel, r/2)
		if err != nil {
			t.Fatal(err)
		}
		zout, err := div.ZoomOut(sel, 2*r, disc.ZoomOutGreedyLargest)
		if err != nil {
			t.Fatal(err)
		}
		center := sel.SortedIDs()[0]
		lz, err := div.LocalZoomIn(sel, center, r/2)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = answers{sel.SortedIDs(), zin.SortedIDs(), zout.SortedIDs(), sortedCopy(lz.Representatives), center}
	}
	doJSON(t, "POST", ts.URL+"/v1/live", map[string]any{"name": "feed", "radius": r}, http.StatusCreated, nil)

	post := func(path string, body, out any) error {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			return fmt.Errorf("POST %s: status %d", path, resp.StatusCode)
		}
		return json.NewDecoder(resp.Body).Decode(out)
	}
	explore := func(name string) error {
		w := want[name]
		var sel, zin, zout result
		var lz struct {
			Representatives []int `json:"representatives"`
		}
		if err := post("/v1/datasets/"+name+"/select", map[string]any{"radius": r}, &sel); err != nil {
			return err
		}
		if err := post("/v1/results/"+sel.ID+"/zoom", map[string]any{"radius": r / 2}, &zin); err != nil {
			return err
		}
		if err := post("/v1/results/"+sel.ID+"/zoom", map[string]any{"radius": 2 * r}, &zout); err != nil {
			return err
		}
		if err := post("/v1/results/"+sel.ID+"/localzoom", map[string]any{"center": w.center, "radius": r / 2}, &lz); err != nil {
			return err
		}
		for _, c := range []struct {
			step      string
			got, want []int
		}{{"select", sel.IDs, w.sel}, {"zoom-in", zin.IDs, w.zin}, {"zoom-out", zout.IDs, w.zout}, {"local zoom-in", sortedCopy(lz.Representatives), w.local}} {
			if !slices.Equal(c.got, c.want) {
				return fmt.Errorf("%s %s: ids %v, want %v", name, c.step, c.got, c.want)
			}
		}
		return nil
	}

	var mu sync.Mutex
	inserted := map[int]disc.Point{}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := explore(name); err != nil {
					errc <- err
					return
				}
			}
		}(names[w%2])
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 11))
			for i := 0; i < 25; i++ {
				p := disc.Point{rng.Float64(), rng.Float64()}
				var mut liveMutation
				if err := post("/v1/live/feed/insert", map[string]any{"point": []float64(p)}, &mut); err != nil {
					errc <- err
					return
				}
				mu.Lock()
				inserted[mut.ID] = p
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	doJSON(t, "POST", ts.URL+"/v1/live/feed/flush", nil, http.StatusOK, nil)
	var sel liveSelection
	doJSON(t, "GET", ts.URL+"/v1/live/feed/selection", nil, http.StatusOK, &sel)
	ref, err := disc.NewUpdater(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < len(inserted); id++ {
		p, ok := inserted[id]
		if !ok {
			t.Fatalf("live ids are not dense: %d missing of %d", id, len(inserted))
		}
		if _, err := ref.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	ref.Flush()
	if !idsEqual(sel.IDs, ref.Selection()) {
		t.Fatalf("live selection %v, want the replay's %v", sel.IDs, ref.Selection())
	}
}
