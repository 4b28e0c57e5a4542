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
	"slices"
	"testing"

	disc "github.com/discdiversity/disc"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New().Handler())
	t.Cleanup(ts.Close)
	return ts
}

func doJSON(t *testing.T, method, url string, body any, wantStatus int, out any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("%s %s: status %d, want %d (%v)", method, url, resp.StatusCode, wantStatus, e)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// uploadPoints creates dataset name from n seeded uniform 2-d points,
// labelled obj-<i>, and returns the points it sent.
func uploadPoints(t *testing.T, ts *httptest.Server, name string, n int) [][]float64 {
	t.Helper()
	rng := rand.New(rand.NewPCG(1, 1))
	points := make([][]float64, n)
	labels := make([]string, n)
	for i := range points {
		points[i] = []float64{rng.Float64(), rng.Float64()}
		labels[i] = fmt.Sprintf("obj-%d", i)
	}
	doJSON(t, "POST", ts.URL+"/v1/datasets",
		map[string]any{"name": name, "metric": "euclidean", "points": points, "labels": labels},
		http.StatusCreated, nil)
	return points
}

type result struct {
	ID        string   `json:"id"`
	Dataset   string   `json:"dataset"`
	Radius    float64  `json:"radius"`
	Algorithm string   `json:"algorithm"`
	Size      int      `json:"size"`
	IDs       []int    `json:"ids"`
	Labels    []string `json:"labels"`
	Accesses  int64    `json:"accesses"`
}

func TestDatasetLifecycle(t *testing.T) {
	ts := newTestServer(t)
	uploadPoints(t, ts, "demo", 200)

	var list []map[string]any
	doJSON(t, "GET", ts.URL+"/v1/datasets", nil, http.StatusOK, &list)
	if len(list) != 1 || list[0]["name"] != "demo" {
		t.Fatalf("list = %v", list)
	}
	var info map[string]any
	doJSON(t, "GET", ts.URL+"/v1/datasets/demo", nil, http.StatusOK, &info)
	if info["size"].(float64) != 200 || info["dim"].(float64) != 2 {
		t.Fatalf("info = %v", info)
	}
	// Duplicate name conflicts.
	doJSON(t, "POST", ts.URL+"/v1/datasets",
		map[string]any{"name": "demo", "points": [][]float64{{0, 0}}},
		http.StatusConflict, nil)
	// Unknown dataset 404s.
	doJSON(t, "GET", ts.URL+"/v1/datasets/nope", nil, http.StatusNotFound, nil)
}

func TestCreateDatasetValidation(t *testing.T) {
	ts := newTestServer(t)
	cases := []map[string]any{
		{"points": [][]float64{{1, 2}}}, // no name
		{"name": "a"},                   // no points
		{"name": "a", "points": [][]float64{{1, 2}}, "metric": "warp"},             // bad metric
		{"name": "a", "points": [][]float64{{1, 2}}, "labels": []string{"x", "y"}}, // label mismatch
		{"name": "a", "points": [][]float64{{1, 2}, {1}}},                          // ragged
	}
	for i, c := range cases {
		doJSON(t, "POST", ts.URL+"/v1/datasets", c, http.StatusBadRequest, nil)
		_ = i
	}
}

func TestSelectAndFetch(t *testing.T) {
	ts := newTestServer(t)
	uploadPoints(t, ts, "demo", 300)

	var res result
	doJSON(t, "POST", ts.URL+"/v1/datasets/demo/select",
		map[string]any{"radius": 0.15}, http.StatusCreated, &res)
	if res.Size == 0 || res.Size != len(res.IDs) || res.Radius != 0.15 {
		t.Fatalf("result %+v", res)
	}
	if len(res.Labels) != res.Size || res.Labels[0] == "" {
		t.Fatalf("labels missing: %+v", res.Labels)
	}
	var again result
	doJSON(t, "GET", ts.URL+"/v1/results/"+res.ID, nil, http.StatusOK, &again)
	if again.Size != res.Size || again.ID != res.ID {
		t.Fatalf("refetch mismatch: %+v vs %+v", again, res)
	}
	// Unknown algorithm and bad radius.
	doJSON(t, "POST", ts.URL+"/v1/datasets/demo/select",
		map[string]any{"radius": 0.1, "algorithm": "quantum"}, http.StatusBadRequest, nil)
	doJSON(t, "POST", ts.URL+"/v1/datasets/demo/select",
		map[string]any{"radius": -0.1}, http.StatusBadRequest, nil)
	doJSON(t, "GET", ts.URL+"/v1/results/r999", nil, http.StatusNotFound, nil)
}

func TestSelectAllAlgorithms(t *testing.T) {
	ts := newTestServer(t)
	uploadPoints(t, ts, "demo", 150)
	for _, alg := range []string{"greedy", "basic", "white-greedy", "lazy-grey", "lazy-white", "coverage", "fast-coverage"} {
		var res result
		doJSON(t, "POST", ts.URL+"/v1/datasets/demo/select",
			map[string]any{"radius": 0.2, "algorithm": alg}, http.StatusCreated, &res)
		if res.Size == 0 {
			t.Errorf("%s: empty result", alg)
		}
	}
}

func TestZoomFlow(t *testing.T) {
	ts := newTestServer(t)
	uploadPoints(t, ts, "demo", 400)

	var initial result
	doJSON(t, "POST", ts.URL+"/v1/datasets/demo/select",
		map[string]any{"radius": 0.2}, http.StatusCreated, &initial)

	// Zoom in: superset of the initial representatives.
	var finer result
	doJSON(t, "POST", ts.URL+"/v1/results/"+initial.ID+"/zoom",
		map[string]any{"radius": 0.1}, http.StatusCreated, &finer)
	if finer.Size < initial.Size || finer.Radius != 0.1 {
		t.Fatalf("zoom-in shrank: %+v", finer)
	}
	kept := make(map[int]bool)
	for _, id := range finer.IDs {
		kept[id] = true
	}
	for _, id := range initial.IDs {
		if !kept[id] {
			t.Errorf("representative %d dropped by zoom-in", id)
		}
	}
	// Zoom out from the finer result.
	var coarser result
	doJSON(t, "POST", ts.URL+"/v1/results/"+finer.ID+"/zoom",
		map[string]any{"radius": 0.3}, http.StatusCreated, &coarser)
	if coarser.Size > finer.Size {
		t.Fatalf("zoom-out grew: %+v", coarser)
	}
	// Equal radius is a client error.
	doJSON(t, "POST", ts.URL+"/v1/results/"+finer.ID+"/zoom",
		map[string]any{"radius": 0.1}, http.StatusBadRequest, nil)
	// Zooming a coverage-only result is rejected.
	var cov result
	doJSON(t, "POST", ts.URL+"/v1/datasets/demo/select",
		map[string]any{"radius": 0.2, "algorithm": "coverage"}, http.StatusCreated, &cov)
	doJSON(t, "POST", ts.URL+"/v1/results/"+cov.ID+"/zoom",
		map[string]any{"radius": 0.1}, http.StatusBadRequest, nil)
}

func TestLocalZoomFlow(t *testing.T) {
	ts := newTestServer(t)
	uploadPoints(t, ts, "demo", 400)
	var initial result
	doJSON(t, "POST", ts.URL+"/v1/datasets/demo/select",
		map[string]any{"radius": 0.25}, http.StatusCreated, &initial)

	var lz map[string]any
	doJSON(t, "POST", ts.URL+"/v1/results/"+initial.ID+"/localzoom",
		map[string]any{"center": initial.IDs[0], "radius": 0.08}, http.StatusOK, &lz)
	if lz["center"].(float64) != float64(initial.IDs[0]) {
		t.Fatalf("local zoom %v", lz)
	}
	reps := lz["representatives"].([]any)
	if len(reps) < initial.Size {
		t.Fatalf("local zoom-in lost representatives: %v", lz)
	}
	// Non-representative centre is a client error.
	nonRep := -1
	sel := make(map[int]bool)
	for _, id := range initial.IDs {
		sel[id] = true
	}
	for i := 0; i < 400; i++ {
		if !sel[i] {
			nonRep = i
			break
		}
	}
	doJSON(t, "POST", ts.URL+"/v1/results/"+initial.ID+"/localzoom",
		map[string]any{"center": nonRep, "radius": 0.08}, http.StatusBadRequest, nil)
}

func TestHammingDatasetOverHTTP(t *testing.T) {
	ts := newTestServer(t)
	doJSON(t, "POST", ts.URL+"/v1/datasets",
		map[string]any{
			"name":   "cams",
			"metric": "hamming",
			"points": [][]float64{{0, 0, 0}, {0, 0, 1}, {1, 1, 1}, {2, 2, 2}},
		},
		http.StatusCreated, nil)
	var res result
	doJSON(t, "POST", ts.URL+"/v1/datasets/cams/select",
		map[string]any{"radius": 1}, http.StatusCreated, &res)
	if res.Size < 2 {
		t.Fatalf("hamming select: %+v", res)
	}
}

func TestMalformedJSON(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/datasets", "application/json", bytes.NewBufferString("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t)
	var body map[string]any
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, &body)
	if body["status"] != "ok" {
		t.Fatalf("healthz = %v", body)
	}
}

func TestSnapshotSaveDisabledWithoutDir(t *testing.T) {
	ts := newTestServer(t)
	uploadPoints(t, ts, "demo", 50)
	doJSON(t, "POST", ts.URL+"/v1/datasets/demo/snapshot", nil, http.StatusBadRequest, nil)
}

// TestSnapshotSaveAndWarmStart: POST /snapshot must persist each
// dataset as a loadable <dir>/<name>/static.discsnap, and a server
// restarted on the same data directory must bring every saved dataset
// back, each selecting identically to the original.
func TestSnapshotSaveAndWarmStart(t *testing.T) {
	dir := t.TempDir()
	srv := New(WithDataDir(dir))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	names := []string{"demo", "other"}
	before := map[string]result{}
	for i, name := range names {
		uploadPoints(t, ts, name, 200+100*i)
		var res result
		doJSON(t, "POST", ts.URL+"/v1/datasets/"+name+"/select",
			map[string]any{"radius": 0.15}, http.StatusCreated, &res)
		before[name] = res
		var saved snapshotBody
		doJSON(t, "POST", ts.URL+"/v1/datasets/"+name+"/snapshot", nil, http.StatusCreated, &saved)
		if want := filepath.Join(dir, name, "static.discsnap"); saved.Path != want || saved.Dataset != name || saved.Bytes <= 0 {
			t.Fatalf("snapshot response %+v, want a positive byte count at %s", saved, want)
		}
	}
	// Unknown dataset 404s.
	doJSON(t, "POST", ts.URL+"/v1/datasets/nope/snapshot", nil, http.StatusNotFound, nil)
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	warm := New(WithDataDir(dir))
	t.Cleanup(func() { warm.Close() })
	if n, err := warm.RestoreLive(); err != nil || n != len(names) {
		t.Fatalf("RestoreLive = (%d, %v), want (%d, nil)", n, err, len(names))
	}
	wts := httptest.NewServer(warm.Handler())
	t.Cleanup(wts.Close)
	for i, name := range names {
		var info map[string]any
		doJSON(t, "GET", wts.URL+"/v1/datasets/"+name, nil, http.StatusOK, &info)
		if info["size"].(float64) != float64(200+100*i) {
			t.Fatalf("%s: warm dataset info %v", name, info)
		}
		var after result
		doJSON(t, "POST", wts.URL+"/v1/datasets/"+name+"/select",
			map[string]any{"radius": 0.15}, http.StatusCreated, &after)
		if !slices.Equal(after.IDs, before[name].IDs) {
			t.Fatalf("%s: warm selection %v, want %v", name, after.IDs, before[name].IDs)
		}
	}
	// A restored name is taken for both kinds.
	doJSON(t, "POST", wts.URL+"/v1/datasets",
		map[string]any{"name": "demo", "points": [][]float64{{0, 0}}}, http.StatusConflict, nil)
	doJSON(t, "POST", wts.URL+"/v1/live",
		map[string]any{"name": "demo", "radius": 0.1}, http.StatusConflict, nil)
}

// TestDatasetNameValidation: names become home directory names, so
// separators and dot-names must be rejected at creation and on every
// route, and a home whose name the routes refuse is never restored.
func TestDatasetNameValidation(t *testing.T) {
	ts := newTestServer(t)
	for _, name := range []string{"a/b", "..", ".", "../escape", "c\\d"} {
		doJSON(t, "POST", ts.URL+"/v1/datasets",
			map[string]any{"name": name, "points": [][]float64{{0, 0}, {1, 1}}},
			http.StatusBadRequest, nil)
	}

	dir := t.TempDir()
	home := filepath.Join(dir, "c\\d")
	if err := os.Mkdir(home, 0o755); err != nil {
		t.Fatal(err)
	}
	div, err := disc.New([]disc.Point{{0, 0}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := div.SaveSnapshot(filepath.Join(home, "static.discsnap")); err != nil {
		t.Fatal(err)
	}
	srv := New(WithDataDir(dir))
	t.Cleanup(func() { srv.Close() })
	if n, err := srv.RestoreLive(); err != nil || n != 0 {
		t.Fatalf("RestoreLive = (%d, %v), want (0, nil): a separator name was restored", n, err)
	}
	rts := httptest.NewServer(srv.Handler())
	t.Cleanup(rts.Close)
	var list []datasetInfo
	doJSON(t, "GET", rts.URL+"/v1/datasets", nil, http.StatusOK, &list)
	if len(list) != 0 {
		t.Fatalf("list = %v, want empty", list)
	}
	doJSON(t, "GET", rts.URL+"/v1/datasets/c%5Cd", nil, http.StatusBadRequest, nil)
}

type liveInfoBody struct {
	Name     string  `json:"name"`
	Metric   string  `json:"metric"`
	Radius   float64 `json:"radius"`
	Dim      int     `json:"dim"`
	Live     int     `json:"live"`
	Selected int     `json:"selected"`
	Pending  int     `json:"pending"`
}

type liveMutation struct {
	ID       int  `json:"id"`
	Selected bool `json:"selected"`
	Live     int  `json:"live"`
	Size     int  `json:"size"`
	Pending  int  `json:"pending"`
}

type liveSelection struct {
	Size    int   `json:"size"`
	Pending int   `json:"pending"`
	IDs     []int `json:"ids"`
}

// TestLiveLifecycle drives the incremental maintainer over HTTP:
// bounded-stale mutations, the flush barrier, per-op convergence, and
// retraction of a representative.
func TestLiveLifecycle(t *testing.T) {
	ts := newTestServer(t)

	var info liveInfoBody
	doJSON(t, "POST", ts.URL+"/v1/live",
		map[string]any{"name": "feed", "radius": 0.1, "points": [][]float64{{0.5, 0.5}}},
		http.StatusCreated, &info)
	if info.Live != 1 || info.Selected != 1 || info.Pending != 0 {
		t.Fatalf("seeded maintainer: %+v", info)
	}

	// Duplicate name conflicts.
	doJSON(t, "POST", ts.URL+"/v1/live",
		map[string]any{"name": "feed", "radius": 0.1}, http.StatusConflict, nil)

	// Bounded-stale insert: the new point is live but unpublished.
	var mut liveMutation
	doJSON(t, "POST", ts.URL+"/v1/live/feed/insert",
		map[string]any{"point": []float64{0.9, 0.9}}, http.StatusCreated, &mut)
	if mut.ID != 1 || mut.Selected || mut.Live != 2 || mut.Size != 1 || mut.Pending != 1 {
		t.Fatalf("stale insert: %+v", mut)
	}
	var sel liveSelection
	doJSON(t, "GET", ts.URL+"/v1/live/feed/selection", nil, http.StatusOK, &sel)
	if sel.Size != 1 || sel.Pending != 1 {
		t.Fatalf("stale selection: %+v", sel)
	}

	// Flush converges: the far-away point becomes a representative.
	var fl struct {
		Repaired int `json:"repaired"`
		Size     int `json:"size"`
		Pending  int `json:"pending"`
	}
	doJSON(t, "POST", ts.URL+"/v1/live/feed/flush", nil, http.StatusOK, &fl)
	if fl.Repaired != 1 || fl.Size != 2 || fl.Pending != 0 {
		t.Fatalf("flush: %+v", fl)
	}

	// Per-op convergence: a covered insert stays unselected.
	doJSON(t, "POST", ts.URL+"/v1/live/feed/insert",
		map[string]any{"point": []float64{0.52, 0.5}, "flush": true}, http.StatusCreated, &mut)
	if mut.Selected || mut.Size != 2 || mut.Pending != 0 {
		t.Fatalf("converged covered insert: %+v", mut)
	}

	// Deleting a representative promotes its covered neighbour.
	doJSON(t, "POST", ts.URL+"/v1/live/feed/delete",
		map[string]any{"id": 0, "flush": true}, http.StatusOK, &mut)
	if mut.Live != 2 || mut.Size != 2 || mut.Pending != 0 {
		t.Fatalf("delete representative: %+v", mut)
	}
	doJSON(t, "GET", ts.URL+"/v1/live/feed/selection", nil, http.StatusOK, &sel)
	if sel.Size != 2 || sel.IDs[0] != 1 || sel.IDs[1] != 2 {
		t.Fatalf("promoted selection: %+v", sel)
	}

	// Double delete is a client error.
	doJSON(t, "POST", ts.URL+"/v1/live/feed/delete",
		map[string]any{"id": 0}, http.StatusBadRequest, nil)

	var infos []liveInfoBody
	doJSON(t, "GET", ts.URL+"/v1/live", nil, http.StatusOK, &infos)
	if len(infos) != 1 || infos[0].Live != 2 {
		t.Fatalf("list: %+v", infos)
	}
	doJSON(t, "GET", ts.URL+"/v1/live/feed", nil, http.StatusOK, &info)
	if info.Dim != 2 || info.Live != 2 {
		t.Fatalf("info: %+v", info)
	}
}

func TestLiveValidation(t *testing.T) {
	ts := newTestServer(t)
	// Unknown metric.
	doJSON(t, "POST", ts.URL+"/v1/live",
		map[string]any{"name": "h", "radius": 1.0, "metric": "jaccard"},
		http.StatusBadRequest, nil)
	// Negative radius.
	doJSON(t, "POST", ts.URL+"/v1/live",
		map[string]any{"name": "n", "radius": -0.5}, http.StatusBadRequest, nil)
	// Unknown maintainer.
	doJSON(t, "POST", ts.URL+"/v1/live/ghost/insert",
		map[string]any{"point": []float64{0.1}}, http.StatusNotFound, nil)
	// Dimension mismatch after the first insert fixes it.
	doJSON(t, "POST", ts.URL+"/v1/live",
		map[string]any{"name": "d", "radius": 0.1}, http.StatusCreated, nil)
	doJSON(t, "POST", ts.URL+"/v1/live/d/insert",
		map[string]any{"point": []float64{0.1, 0.2}}, http.StatusCreated, nil)
	doJSON(t, "POST", ts.URL+"/v1/live/d/insert",
		map[string]any{"point": []float64{0.1}}, http.StatusBadRequest, nil)
}

// TestLiveConcurrentMutations races parallel first inserts, deletes and
// info reads against a fresh maintainer; under -race (make test) this
// pins the handlers to the updater's own synchronisation — the server
// must not cache mutable maintainer state of its own (the old ls.dim
// cache was written unlocked by concurrent first inserts).
func TestLiveConcurrentMutations(t *testing.T) {
	ts := newTestServer(t)
	doJSON(t, "POST", ts.URL+"/v1/live",
		map[string]any{"name": "c", "radius": 0.1}, http.StatusCreated, nil)
	post := func(path string, body any) (int, error) {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return 0, err
		}
		resp, err := http.Post(ts.URL+path, "application/json", &buf)
		if err != nil {
			return 0, err
		}
		var mut liveMutation
		err = json.NewDecoder(resp.Body).Decode(&mut)
		resp.Body.Close()
		return mut.ID, err
	}
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			rng := rand.New(rand.NewPCG(uint64(w), 5))
			for i := 0; i < 20; i++ {
				id, err := post("/v1/live/c/insert", map[string]any{
					"point": []float64{rng.Float64(), rng.Float64()},
					"flush": i%5 == 0,
				})
				if err != nil {
					errc <- err
					return
				}
				if resp, err := http.Get(ts.URL + "/v1/live/c"); err != nil {
					errc <- err
					return
				} else {
					resp.Body.Close()
				}
				if i%3 == 0 {
					if _, err := post("/v1/live/c/delete", map[string]any{"id": id}); err != nil {
						errc <- err
						return
					}
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	var info liveInfoBody
	doJSON(t, "POST", ts.URL+"/v1/live/c/flush", nil, http.StatusOK, nil)
	doJSON(t, "GET", ts.URL+"/v1/live/c", nil, http.StatusOK, &info)
	if info.Dim != 2 {
		t.Fatalf("dim %d after concurrent inserts, want 2", info.Dim)
	}
	if info.Pending != 0 {
		t.Fatalf("pending %d after flush", info.Pending)
	}
}

// TestCosineFloat32DatasetOverHTTP: an embedding-style workload —
// cosine metric, float32 precision — must upload and select end to end
// (the library routes it to the flat-joined coverage graph), and
// unknown precision names must be rejected at upload.
func TestCosineFloat32DatasetOverHTTP(t *testing.T) {
	ts := newTestServer(t)
	rng := rand.New(rand.NewPCG(77, 78))
	pts := make([][]float64, 120)
	for i := range pts {
		p := make([]float64, 8)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		pts[i] = p
	}
	var info map[string]any
	doJSON(t, "POST", ts.URL+"/v1/datasets",
		map[string]any{"name": "emb", "metric": "cosine", "precision": "float32", "points": pts},
		http.StatusCreated, &info)
	if info["metric"] != "cosine" {
		t.Fatalf("info = %v", info)
	}
	var res result
	doJSON(t, "POST", ts.URL+"/v1/datasets/emb/select",
		map[string]any{"radius": 0.3}, http.StatusCreated, &res)
	if res.Size == 0 || res.Size != len(res.IDs) {
		t.Fatalf("result %+v", res)
	}
	doJSON(t, "POST", ts.URL+"/v1/datasets",
		map[string]any{"name": "bad", "precision": "float16", "points": pts},
		http.StatusBadRequest, nil)
}

// TestUnknownJSONFieldsRejected: every POST route that reads a body
// answers 400 to a field its request type does not declare, so a
// misspelt key (the classic {"r": 0.1}, which would decode to radius 0
// and select everything) cannot be silently ignored. The same body
// without the stray field must succeed, which pins the stray field as
// the only cause.
func TestUnknownJSONFieldsRejected(t *testing.T) {
	ts := newTestServer(t)
	uploadPoints(t, ts, "pts", 50)
	var res result
	doJSON(t, "POST", ts.URL+"/v1/datasets/pts/select", map[string]any{"radius": 0.1}, http.StatusCreated, &res)
	doJSON(t, "POST", ts.URL+"/v1/live",
		map[string]any{"name": "feed", "radius": 0.1, "points": [][]float64{{0.5, 0.5}}}, http.StatusCreated, nil)

	post := func(path string, body map[string]any) int {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, tc := range []struct {
		path  string
		valid map[string]any
		stray string
	}{
		{"/v1/datasets", map[string]any{"name": "other", "metric": "euclidean", "points": [][]float64{{0, 0}}}, "pts"},
		{"/v1/datasets/pts/select", map[string]any{"radius": 0.1}, "r"},
		{"/v1/results/" + res.ID + "/zoom", map[string]any{"radius": 0.05}, "r"},
		{"/v1/results/" + res.ID + "/localzoom", map[string]any{"center": 0, "radius": 0.05}, "localRadius"},
		{"/v1/live", map[string]any{"name": "other-live", "radius": 0.1, "points": [][]float64{{0, 0}}}, "pts"},
		{"/v1/live/feed/insert", map[string]any{"point": []float64{0.2, 0.2}, "flush": true}, "flsh"},
		{"/v1/live/feed/delete", map[string]any{"id": 0, "flush": true}, "flsh"},
	} {
		bad := map[string]any{tc.stray: 0.1}
		for k, v := range tc.valid {
			bad[k] = v
		}
		if code := post(tc.path, bad); code != http.StatusBadRequest {
			t.Errorf("POST %s with stray %q: status %d, want 400", tc.path, tc.stray, code)
		}
		if code := post(tc.path, tc.valid); code >= 300 {
			t.Errorf("POST %s without the stray field: status %d", tc.path, code)
		}
	}
}

// TestSharedNamespace: static and live datasets share one namespace. A
// create under a name the other kind holds answers 409, each route
// family answers 404 for a dataset of the other kind and lists only its
// own, and /readyz lists both kinds.
func TestSharedNamespace(t *testing.T) {
	ts := newTestServer(t)
	uploadPoints(t, ts, "pics", 50)
	doJSON(t, "POST", ts.URL+"/v1/live",
		map[string]any{"name": "feed", "radius": 0.1, "points": [][]float64{{0.5, 0.5}}}, http.StatusCreated, nil)

	doJSON(t, "POST", ts.URL+"/v1/live", map[string]any{"name": "pics", "radius": 0.1}, http.StatusConflict, nil)
	doJSON(t, "POST", ts.URL+"/v1/datasets",
		map[string]any{"name": "feed", "points": [][]float64{{0, 0}}}, http.StatusConflict, nil)

	doJSON(t, "GET", ts.URL+"/v1/live/pics", nil, http.StatusNotFound, nil)
	doJSON(t, "GET", ts.URL+"/v1/live/pics/selection", nil, http.StatusNotFound, nil)
	doJSON(t, "POST", ts.URL+"/v1/live/pics/insert", map[string]any{"point": []float64{0.1, 0.1}}, http.StatusNotFound, nil)
	doJSON(t, "POST", ts.URL+"/v1/datasets/feed/select", map[string]any{"radius": 0.1}, http.StatusNotFound, nil)
	doJSON(t, "GET", ts.URL+"/v1/datasets/feed", nil, http.StatusNotFound, nil)
	doJSON(t, "POST", ts.URL+"/v1/datasets/feed/snapshot", nil, http.StatusNotFound, nil)

	var static []datasetInfo
	doJSON(t, "GET", ts.URL+"/v1/datasets", nil, http.StatusOK, &static)
	if len(static) != 1 || static[0].Name != "pics" {
		t.Fatalf("GET /v1/datasets = %+v, want pics alone", static)
	}
	var live []liveInfoBody
	doJSON(t, "GET", ts.URL+"/v1/live", nil, http.StatusOK, &live)
	if len(live) != 1 || live[0].Name != "feed" {
		t.Fatalf("GET /v1/live = %+v, want feed alone", live)
	}

	var ready readyzBody
	doJSON(t, "GET", ts.URL+"/readyz", nil, http.StatusOK, &ready)
	for _, name := range []string{"pics", "feed"} {
		if st := ready.Datasets[name].State; st != "ready" {
			t.Errorf("/readyz lists %s as %q, want ready (%+v)", name, st, ready)
		}
	}
}

// TestLiveCheckpointReportsBytes: the live snapshot route reports the
// size of the checkpoint it wrote, as the static one does.
func TestLiveCheckpointReportsBytes(t *testing.T) {
	ts := httptest.NewServer(New(WithDataDir(t.TempDir())).Handler())
	t.Cleanup(ts.Close)
	doJSON(t, "POST", ts.URL+"/v1/live",
		map[string]any{"name": "feed", "radius": 0.1, "points": [][]float64{{0.5, 0.5}, {0.9, 0.1}}}, http.StatusCreated, nil)
	var saved snapshotBody
	doJSON(t, "POST", ts.URL+"/v1/live/feed/snapshot", nil, http.StatusCreated, &saved)
	fi, err := os.Stat(saved.Path)
	if err != nil {
		t.Fatal(err)
	}
	if saved.Bytes <= 0 || saved.Bytes != fi.Size() {
		t.Fatalf("checkpoint reports %d bytes, file %s has %d", saved.Bytes, saved.Path, fi.Size())
	}
}
