package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
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
		if ix := srv.datasets["demo"].div.Indexed(); ix != disc.IndexCoverageGraph {
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
// coverage-graph CSR at r) must warm-start, in fresh servers, onto the
// coverage graph and answer select, zoom-in and zoom-out with ids
// identical to the original server's.
func TestServedSnapshotRoundTrip(t *testing.T) {
	const r = 0.08
	dir := t.TempDir()
	srv := New(WithSnapshotDir(dir))
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
		fresh := New()
		fts := httptest.NewServer(fresh.Handler())
		t.Cleanup(fts.Close)
		if err := fresh.LoadSnapshot("demo", bytes.NewReader(file)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ix := fresh.datasets["demo"].div.Indexed(); ix != disc.IndexCoverageGraph {
			t.Fatalf("%s: restored dataset runs on %v, want the index its file records", name, ix)
		}
		got := exploreIDs(t, fts.URL, r)
		for i, step := range []string{"select", "zoom-in", "zoom-out"} {
			if !slices.Equal(got[i], want[i]) {
				t.Errorf("%s: %s ids differ from the original server's", name, step)
			}
		}
	}
}

// TestLoadSnapshotKeepsRecordedIndex: a snapshot written by a default
// (M-tree) diversifier stays on the M-tree when a server loads it, and
// its greedy select still answers the library's ids.
func TestLoadSnapshotKeepsRecordedIndex(t *testing.T) {
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
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	if err := srv.LoadSnapshot("paper", &buf); err != nil {
		t.Fatal(err)
	}
	if ix := srv.datasets["paper"].div.Indexed(); ix != disc.IndexMTree {
		t.Fatalf("restored dataset runs on %v, want the M-tree its file records", ix)
	}
	var res result
	doJSON(t, "POST", ts.URL+"/v1/datasets/paper/select",
		map[string]any{"radius": r}, http.StatusCreated, &res)
	if !slices.Equal(res.IDs, lib.SortedIDs()) {
		t.Fatal("served select on the restored M-tree differs from the library's")
	}
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
